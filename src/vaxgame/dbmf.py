"""Degree-based mean-field SIS machinery.

Treats all unprotected nodes of one degree as statistically identical,
giving one infection-probability ODE per degree class.  The steady state
is governed by the reproduction quantity R(x): below one the disease-free
state is globally stable, above one a unique endemic state exists where
the neighbor-infection probability v solves a scalar monotone fixed-point
equation.  The infection rate is normalized to one, so the curing rate
``delta`` is the only epidemic parameter besides the network.

All operations are pure in (params, state); sweeps may evaluate them
concurrently over distinct states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .degree import DegreeDistribution

__all__ = [
    "EpidemicParams",
    "SocialState",
    "EndemicState",
    "Trajectory",
    "NimfaReduction",
    "ConsistencyError",
    "ConvergenceError",
    "IntegrationError",
    "reproduction",
    "endemic_state",
    "batch_endemic_v",
    "integrate_dbmf",
    "settle_dbmf",
    "nimfa_reduction",
]

# Endemic roots closer to criticality than this resolve to v = 0.
NEAR_CRITICAL_R = 1e-12
BISECT_MAX_ITER = 200
BISECT_LO = 1e-300


class ConsistencyError(ValueError):
    """State and parameters refer to different degree distributions."""


class ConvergenceError(RuntimeError):
    """Iteration cap hit; carries the best iterate found."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class IntegrationError(RuntimeError):
    """ODE step left the probability simplex; retry with a smaller dt."""


@dataclass(frozen=True)
class EpidemicParams:
    """Curing rate and network for one epidemic instance."""

    delta: float
    distribution: DegreeDistribution

    def __post_init__(self):
        if not (self.delta > 0 and np.isfinite(self.delta)):
            raise ValueError("curing rate delta must be positive and finite")

    @property
    def epidemic_can_persist(self) -> bool:
        """delta below <d^2>/<d>, so vaccination choices matter for persistence."""
        d = self.distribution
        return self.delta < d.second_moment / d.mean_degree


class SocialState:
    """Per-degree mass of unprotected nodes, keyed to a distribution.

    ``unprotected[i]`` lies in [0, m_i]; the vaccinated mass is implicit.
    Immutable after construction.
    """

    def __init__(self, distribution: DegreeDistribution, unprotected):
        x = np.ascontiguousarray(unprotected, dtype=np.float64)
        if x.shape != distribution.degrees.shape:
            raise ValueError("unprotected mass must align with the degree set")
        if np.any(x < -1e-15) or np.any(x > distribution.mass + 1e-15):
            raise ValueError("unprotected mass must lie in [0, m_d] per degree")
        x = np.clip(x, 0.0, distribution.mass)
        x.setflags(write=False)
        self.distribution = distribution
        self.unprotected = x

    @classmethod
    def all_unprotected(cls, distribution: DegreeDistribution) -> "SocialState":
        return cls(distribution, distribution.mass.copy())

    @classmethod
    def all_vaccinated(cls, distribution: DegreeDistribution) -> "SocialState":
        return cls(distribution, np.zeros_like(distribution.mass))

    @classmethod
    def from_threshold(
        cls, distribution: DegreeDistribution, threshold, fraction=None
    ) -> "SocialState":
        """Threshold state: degrees below fully unprotected, above vaccinated.

        ``fraction`` is the unprotected mass at the threshold degree and
        defaults to the full mass there.  ``threshold=None`` means everyone
        vaccinates.
        """
        x = np.zeros_like(distribution.mass)
        if threshold is not None:
            i = distribution.index_of(threshold)
            f = distribution.mass[i] if fraction is None else float(fraction)
            if not (0.0 <= f <= distribution.mass[i] + 1e-15):
                raise ValueError("threshold fraction outside [0, m_d]")
            x[:i] = distribution.mass[:i]
            x[i] = min(f, distribution.mass[i])
        return cls(distribution, x)

    @property
    def unprotected_mass(self) -> float:
        return float(self.unprotected.sum())

    def neighbor_weights(self) -> np.ndarray:
        """q_hat_d = d*x_{d,U}/<d>: chance a random neighbor is unprotected of degree d."""
        return self.distribution.degrees * self.unprotected / self.distribution.mean_degree


def _require_same_support(params: EpidemicParams, state: SocialState):
    if state.distribution is params.distribution:
        return
    if not state.distribution.same_support(params.distribution):
        raise ConsistencyError("social state built for a different distribution")


@dataclass(frozen=True)
class EndemicState:
    """Steady state induced by a social state.

    ``v`` is the probability that a randomly chosen neighbor is infected;
    per-degree infection probabilities follow as p_d = d*v/(delta + d*v).
    ``degenerate`` marks reproduction within float resolution of one,
    where the positive root is below representable resolution.
    """

    v: float
    p: np.ndarray = field(repr=False)
    reproduction: float
    residual: float
    degenerate: bool = False

    @property
    def endemic(self) -> bool:
        return self.v > 0.0


def reproduction(params: EpidemicParams, state: SocialState) -> float:
    """Reproduction quantity R(x) = sum d^2 x_{d,U} / (delta <d>)."""
    _require_same_support(params, state)
    d = params.distribution.degrees.astype(np.float64)
    return float(np.sum(d * d * state.unprotected) / (params.delta * params.distribution.mean_degree))


def _probabilities(params: EpidemicParams, v: float) -> np.ndarray:
    d = params.distribution.degrees.astype(np.float64)
    return d * v / (params.delta + d * v)


def endemic_state(params: EpidemicParams, state: SocialState, tol: float = 1e-12) -> EndemicState:
    """Endemic fixed point of the mean-field dynamics.

    For R(x) <= 1 the disease-free state is returned.  Otherwise the unique
    root of g(v) = sum_d d*q_hat_d/(delta + d*v) - 1 on (0, 1] is bracketed
    by bisection: g is strictly decreasing with g(0+) = R - 1 > 0 and
    g(1) < 0, so bisection converges unconditionally even when g is nearly
    flat close to criticality.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _require_same_support(params, state)
    r = reproduction(params, state)
    n = params.distribution.size
    if r <= 1.0 + NEAR_CRITICAL_R:
        degenerate = r > 1.0
        return EndemicState(0.0, np.zeros(n), r, residual=0.0, degenerate=degenerate)

    d = params.distribution.degrees.astype(np.float64)
    coeff = d * state.neighbor_weights()  # d * q_hat_d
    delta = params.delta

    def g(v):
        return float(np.sum(coeff / (delta + d * v)) - 1.0)

    lo, hi = BISECT_LO, 1.0
    best_v, best_g = lo, g(lo)
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) < abs(best_g):
            best_v, best_g = mid, gm
        if gm > 0.0:
            lo = mid
        else:
            hi = mid
        # a tight bracket on top of |g| <= tol keeps the relative error of
        # v small even near criticality, where g is tiny everywhere
        if abs(gm) <= tol and hi - lo <= max(1e-13 * mid, 1e-18):
            return EndemicState(mid, _probabilities(params, mid), r, residual=abs(gm))
    if abs(best_g) <= tol:
        return EndemicState(best_v, _probabilities(params, best_v), r, residual=abs(best_g))
    raise ConvergenceError(
        f"endemic fixed point not within {tol} after {BISECT_MAX_ITER} bisections",
        best=EndemicState(best_v, _probabilities(params, best_v), r, residual=abs(best_g)),
        residual=abs(best_g),
    )


def batch_endemic_v(params: EpidemicParams, unprotected: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Endemic v for many social states at once.

    ``unprotected`` has one state per row, aligned with the degree set.
    Rows with R <= 1 return zero.  Same bracketing as
    :func:`endemic_state`, run in lockstep over the active rows; like it,
    raises :class:`ConvergenceError` carrying the last iterate and the
    worst |g| if the bisections run out first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.atleast_2d(np.asarray(unprotected, dtype=np.float64))
    d = params.distribution.degrees.astype(np.float64)
    mean_d = params.distribution.mean_degree
    delta = params.delta
    coeff = x * (d * d) / mean_d  # rows of d * q_hat_d
    r = coeff.sum(axis=1) / delta
    v = np.zeros(x.shape[0])
    active = r > 1.0 + NEAR_CRITICAL_R
    if not np.any(active):
        return v
    c = coeff[active]
    lo = np.full(c.shape[0], BISECT_LO)
    hi = np.ones(c.shape[0])
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        g = (c / (delta + np.outer(mid, d))).sum(axis=1) - 1.0
        pos = g > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
        if np.all(np.abs(g) <= tol) and np.all(hi - lo <= np.maximum(1e-13 * mid, 1e-18)):
            break
    else:
        v[active] = mid
        worst = float(np.max(np.abs(g)))
        raise ConvergenceError(
            f"endemic fixed point not within {tol} after {BISECT_MAX_ITER} bisections "
            f"(worst |g| {worst:.3e})",
            best=v,
            residual=worst,
        )
    v[active] = 0.5 * (lo + hi)
    return v


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the mean-field ODE, one column per degree."""

    times: np.ndarray
    probabilities: np.ndarray  # shape (len(times), n_degrees)
    degrees: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.probabilities[-1]


def _ode_rhs(delta, d, q_hat, p):
    return -delta * p + (1.0 - p) * d * np.dot(q_hat, p)


def _rk4_step(delta, d, q_hat, p, dt):
    """One classical RK4 step of the mean-field ODE."""
    k1 = _ode_rhs(delta, d, q_hat, p)
    k2 = _ode_rhs(delta, d, q_hat, p + 0.5 * dt * k1)
    k3 = _ode_rhs(delta, d, q_hat, p + 0.5 * dt * k2)
    k4 = _ode_rhs(delta, d, q_hat, p + dt * k3)
    return p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _require_unit_interval(p: np.ndarray, t: float):
    """Raise :class:`IntegrationError` unless p is finite and in [0, 1] up to roundoff."""
    if not np.all((p >= -1e-9) & (p <= 1.0 + 1e-9)):
        raise IntegrationError(f"iterate left [0, 1] at t={t:g}; reduce dt")


def _initial_probabilities(params: EpidemicParams, p0) -> np.ndarray:
    p = np.broadcast_to(np.asarray(p0, dtype=np.float64), (params.distribution.size,)).copy()
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("initial probabilities must lie in [0, 1]")
    return p


def integrate_dbmf(
    params: EpidemicParams,
    state: SocialState,
    p0,
    t_end: float,
    dt: float | None = None,
    sample_stride: int = 1,
) -> Trajectory:
    """Integrate the coupled per-degree infection ODE with classical RK4.

    The system is smooth and low-dimensional (one equation per degree), so
    a fixed step suffices; the default is ``0.01/delta``.  Iterates leaving
    [0, 1] beyond roundoff, or not finite, raise :class:`IntegrationError`.
    """
    _require_same_support(params, state)
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if dt is None:
        dt = 0.01 / params.delta
    if dt <= 0:
        raise ValueError("dt must be positive")
    if sample_stride < 1:
        raise ValueError("sample_stride must be at least 1")
    p = _initial_probabilities(params, p0)

    d = params.distribution.degrees.astype(np.float64)
    q_hat = state.neighbor_weights()
    delta = params.delta
    steps = max(1, int(round(t_end / dt)))

    times = [0.0]
    samples = [p.copy()]
    for k in range(1, steps + 1):
        p = _rk4_step(delta, d, q_hat, p, dt)
        _require_unit_interval(p, k * dt)
        p = np.clip(p, 0.0, 1.0)
        if k % sample_stride == 0 or k == steps:
            times.append(k * dt)
            samples.append(p.copy())
    return Trajectory(np.array(times), np.array(samples), params.distribution.degrees)


def settle_dbmf(
    params: EpidemicParams,
    state: SocialState,
    p0=0.5,
    dt: float | None = None,
    tol: float = 1e-10,
    t_max: float = 50_000.0,
) -> np.ndarray:
    """Run the ODE until successive unit-time samples differ by < tol.

    The default step is scaled to the ODE's stiffness,
    ``dt = 0.5/(delta + d_max*s)`` with ``s = sum(q_hat) <= 1`` the
    unprotected share of edge ends.  The Jacobian
    ``-diag(delta + d*v) + ((1-p)*d) q_hat^T`` is similar, by a diagonal
    scaling, to a symmetric matrix, so its eigenvalues are real; they lie
    in ``[-(delta + d_max*s), d_max*s]`` because ``v <= s`` and
    ``sum d^2 x/<d> <= d_max*s``.  Hence ``dt*|lambda| < 1``, well inside
    RK4's real stability interval (about 2.78), and since a fixed point
    of the RK4 map is a fixed point of the ODE, the settled state does not
    depend on the step beyond ``tol``.

    Returns the settled per-degree probabilities.  Raises
    :class:`IntegrationError` as soon as a unit-time sample is not finite
    or lies outside [0, 1] beyond roundoff (an unstable caller-supplied
    ``dt``), and :class:`ConvergenceError` if the horizon ``t_max`` is
    exhausted first.
    """
    _require_same_support(params, state)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    d = params.distribution.degrees.astype(np.float64)
    q_hat = state.neighbor_weights()
    delta = params.delta
    if dt is None:
        dt = 0.5 / (delta + params.distribution.d_max * q_hat.sum())
    if not dt > 0:
        raise ValueError("dt must be positive")
    p = _initial_probabilities(params, p0)

    chunk_steps = max(1, int(round(1.0 / dt)))
    elapsed = 0.0
    prev = p.copy()
    while elapsed < t_max:
        prev = p.copy()
        for _ in range(chunk_steps):
            p = _rk4_step(delta, d, q_hat, p, dt)
        # before the clip, which would hide an unstable step
        _require_unit_interval(p, elapsed + chunk_steps * dt)
        p = np.clip(p, 0.0, 1.0)
        elapsed += chunk_steps * dt
        if np.max(np.abs(p - prev)) < tol:
            return p
    raise ConvergenceError(
        f"dynamics not settled within t_max={t_max:g}", best=p, residual=float(np.max(np.abs(p - prev)))
    )


@dataclass(frozen=True)
class NimfaReduction:
    """Rank-one node-level reduction of the mean-field model.

    Degree classes become nodes of a weighted directed graph whose
    adjacency is the outer product of the degree vector with the
    unprotected neighbor weights; the spectral radius of
    Delta^-1 A^T equals the reproduction quantity exactly.
    """

    adjacency: np.ndarray = field(repr=False)
    spectral_radius: float
    reproduction: float


def nimfa_reduction(params: EpidemicParams, state: SocialState) -> NimfaReduction:
    """Materialize the degree-class adjacency and its spectral radius."""
    _require_same_support(params, state)
    d = params.distribution.degrees.astype(np.float64)
    q_hat = state.neighbor_weights()
    adjacency = np.outer(d, q_hat)  # entry (i, j) = d_i * q_hat_j
    m = adjacency.T / params.delta  # Delta^-1 A^T
    rho = float(np.max(np.abs(np.linalg.eigvals(m))))
    return NimfaReduction(adjacency, rho, reproduction(params, state))
