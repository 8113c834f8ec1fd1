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

import operator
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
    "TableSizeError",
    "reproduction",
    "endemic_state",
    "batch_endemic_v",
    "integrate_dbmf",
    "settle_dbmf",
    "nimfa_reduction",
]

# Endemic roots closer to criticality than this resolve to v = 0.
NEAR_CRITICAL_R = 1e-12
# |g(v)| a root must reach before its Newton step may stop it.
ROOT_TOL = 1e-12
# Newton from v = 0 roughly doubles v per step until near the root: about
# ten steps at delta = 0.5, one more per halving of delta (41 at 1e-9).
NEWTON_MAX_ITER = 200
# settle_dbmf stops once successive unit-time samples differ by less than
# SETTLE_TOL, and gives up after SETTLE_T_MAX time units.
SETTLE_TOL = 1e-10
SETTLE_T_MAX = 50_000.0
# dt*(delta + d_max*s) of the stiffness-scaled RK4 step (see settle_dbmf).
STABLE_STEP = 1.5
# Largest trajectory table integrate_dbmf allocates, in bytes.
MAX_TABLE_BYTES = 2**30
# Most degrees nimfa_reduction builds its n x n matrix for, checked before allocating.
NIMFA_MAX_DEGREES = 4096


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


class TableSizeError(ValueError):
    """A trajectory table would exceed MAX_TABLE_BYTES."""


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


def _require_unprotected(distribution: DegreeDistribution, x: np.ndarray, ndim: int):
    """Raise ValueError unless x has ``ndim`` axes, the last over the degrees, within [0, m_d]."""
    if x.ndim != ndim or x.shape[-1] != distribution.size:
        raise ValueError("unprotected mass must align with the degree set")
    if not np.all((x >= -1e-15) & (x <= distribution.mass + 1e-15)):
        raise ValueError("unprotected mass must lie in [0, m_d] per degree")


class SocialState:
    """Per-degree mass of unprotected nodes, keyed to a distribution.

    ``unprotected[i]`` lies in [0, m_i]; the vaccinated mass is implicit.
    Immutable after construction.
    """

    def __init__(self, distribution: DegreeDistribution, unprotected):
        x = np.ascontiguousarray(unprotected, dtype=np.float64)
        _require_unprotected(distribution, x, ndim=1)
        x = np.clip(x, 0.0, distribution.mass)
        x.setflags(write=False)
        self.distribution = distribution
        self.unprotected = x

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


def _reproductions(params: EpidemicParams, unprotected: np.ndarray) -> np.ndarray:
    """R of each row of a C-contiguous ``(rows, n)`` array, over every degree.

    A row's sum does not depend on the rows beside it, so a state is
    endemic in a batch exactly when it is endemic alone.
    """
    d = params.distribution.float_degrees
    return np.sum(d * d * unprotected, axis=1) / (params.delta * params.distribution.mean_degree)


def reproduction(params: EpidemicParams, state: SocialState) -> float:
    """Reproduction quantity R(x) = sum d^2 x_{d,U} / (delta <d>)."""
    _require_same_support(params, state)
    return float(_reproductions(params, state.unprotected[None, :])[0])


def _probabilities(params: EpidemicParams, v) -> np.ndarray:
    """p_d = d*v/(delta + d*v): one row for a scalar v, one per entry of an array."""
    d = params.distribution.float_degrees
    v = np.asarray(v, dtype=np.float64)[..., None]
    return d * v / (params.delta + d * v)


def _coefficients(params: EpidemicParams, unprotected: np.ndarray):
    """Degrees and rows of d*q_hat_d = d^2*x_d/<d>, the numerators of g.

    Both stop at the last degree where some row has nonzero unprotected
    mass.  Every term d^2*x_d/(<d>*(delta + d*v)) past it is exactly 0.0,
    so the cut leaves g and g' the same functions; only numpy's pairwise
    grouping of the kept terms can differ, by a few ulps.  A state whose
    last unprotected degree is the j-th keeps j + 1 columns.
    """
    columns = np.flatnonzero(unprotected.any(axis=0))
    width = columns[-1] + 1 if columns.size else 0
    d = params.distribution.float_degrees[:width]
    return d, unprotected[:, :width] * (d * d) / params.distribution.mean_degree


def _endemic_roots(delta: float, d: np.ndarray, coeff: np.ndarray, tol: float):
    """Root v of g(v) = sum_d coeff_d/(delta + d*v) - 1 for each row of ``coeff``.

    ``d`` and the columns of ``coeff`` are the degrees :func:`_coefficients`
    keeps, so each Newton step costs the rows times that width, not the
    whole degree set.  Every row needs g(0) = R - 1 > 0.  g is strictly
    decreasing and convex, so a tangent left of the root meets zero at or
    left of the root: Newton from v = 0 rises monotonically to the root and
    never overshoots, and needs no bracket or fallback.  A row stops for
    good at the first iterate with |g| <= tol and a next step g/|g'| of at
    most 1e-13*v.  The step is signed, so the test also ends a row once
    rounding puts g <= 0, as it does near R = 1, where g is rounding noise.

    Returns ``(v, |g(v)|)`` per row.  Raises :class:`ConvergenceError` with
    the last iterates and the worst |g| after ``NEWTON_MAX_ITER`` steps.
    """
    v = np.zeros(coeff.shape[0])
    done = np.zeros(v.shape, dtype=bool)
    # two work arrays of the batch's size, reused by every step
    w, terms = np.empty_like(coeff), np.empty_like(coeff)
    for _ in range(NEWTON_MAX_ITER):
        # a finished row keeps its v, so its g is recomputed bit for bit
        np.add(delta, np.outer(v, d, out=w), out=w)
        g = np.divide(coeff, w, out=terms).sum(axis=1) - 1.0
        step = g / (np.divide(terms, w, out=w) @ d)  # g/|g'|
        done |= (np.abs(g) <= tol) & (step <= 1e-13 * v)
        if done.all():
            return v, np.abs(g)
        v = np.where(done, v, v + step)
    worst = float(np.max(np.abs(g)))
    message = f"endemic fixed point not within {tol} after {NEWTON_MAX_ITER} Newton steps"
    raise ConvergenceError(f"{message} (worst |g| {worst:.3e})", best=v, residual=worst)


def endemic_state(params: EpidemicParams, state: SocialState) -> EndemicState:
    """Endemic fixed point of the mean-field dynamics.

    For R(x) <= 1 + NEAR_CRITICAL_R the disease-free state is returned.
    Otherwise v is the unique root in (0, 1) of
    g(v) = sum_d d*q_hat_d/(delta + d*v) - 1, found to |g| <= ROOT_TOL by
    the monotone Newton kernel :func:`_endemic_roots` on a batch of one
    row, over the degrees up to the last one with unprotected mass (the
    terms past it are exactly zero).  R and the returned p still cover
    every degree.  If its iteration cap runs out, the
    :class:`ConvergenceError` carries the last iterate as an
    :class:`EndemicState`.
    """
    _require_same_support(params, state)
    r = reproduction(params, state)
    if r <= 1.0 + NEAR_CRITICAL_R:
        return EndemicState(0.0, np.zeros(params.distribution.size), r, residual=0.0, degenerate=r > 1.0)
    try:
        d, coeff = _coefficients(params, state.unprotected[None, :])
        v, residual = _endemic_roots(params.delta, d, coeff, ROOT_TOL)
    except ConvergenceError as exc:
        v = float(exc.best[0])
        exc.best = EndemicState(v, _probabilities(params, v), r, residual=exc.residual)
        raise
    v = float(v[0])
    return EndemicState(v, _probabilities(params, v), r, residual=float(residual[0]))


def batch_endemic_v(params: EpidemicParams, unprotected: np.ndarray) -> np.ndarray:
    """Endemic v for many social states at once.

    ``unprotected`` has one state per row, aligned with the degree set and
    within [0, m_d] (ValueError otherwise).  Rows with R <= 1 +
    NEAR_CRITICAL_R give zero, the rest go through :func:`_endemic_roots`
    like :func:`endemic_state`, over the degrees up to the last one where
    any row has unprotected mass.  On exhaustion the
    :class:`ConvergenceError` carries the last iterates, zero in the
    subcritical rows.
    """
    x = np.ascontiguousarray(np.atleast_2d(unprotected), dtype=np.float64)
    _require_unprotected(params.distribution, x, ndim=2)
    d, coeff = _coefficients(params, x)
    v = np.zeros(x.shape[0])
    active = _reproductions(params, x) > 1.0 + NEAR_CRITICAL_R
    try:
        v[active] = _endemic_roots(params.delta, d, coeff[active], ROOT_TOL)[0]
    except ConvergenceError as exc:
        v[active] = exc.best
        exc.best = v
        raise
    return v


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the mean-field ODE as one float table.

    ``table`` has one row per sample: the time in column 0, then one
    infection probability per degree.  ``times``, ``probabilities`` and
    ``final`` are views of it, not copies.
    """

    table: np.ndarray = field(repr=False)  # shape (samples, 1 + n_degrees)
    degrees: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def probabilities(self) -> np.ndarray:
        return self.table[:, 1:]

    @property
    def final(self) -> np.ndarray:
        return self.table[-1, 1:]


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
    # two reductions, no temporaries; a NaN makes min or max NaN, which fails
    if not (p.min() >= -1e-9 and p.max() <= 1.0 + 1e-9):
        raise IntegrationError(f"iterate left [0, 1] at t={t:g}; reduce dt")


def _require_finite_positive(**values):
    """Raise ValueError naming the first keyword argument not finite and positive."""
    for name, value in values.items():
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite")


def _initial_probabilities(params: EpidemicParams, p0) -> np.ndarray:
    """p0 as one probability per degree: a number for all, or one value each."""
    p = np.asarray(p0, dtype=np.float64)
    if not (p.ndim == 0 or p.shape == (params.distribution.size,)):
        raise ValueError("p0 must be a number or one value per degree")
    p = np.broadcast_to(p, (params.distribution.size,)).copy()
    # one "inside" test, so a NaN, which compares false both ways, fails it
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("initial probabilities p0 must lie in [0, 1]")
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

    The system is smooth (one equation per degree), so a fixed step
    suffices.  The default is ``0.01/delta``, or the stiffness-scaled step
    ``STABLE_STEP/(delta + d_max*s)`` of :func:`settle_dbmf` where that is
    smaller, which happens once ``d_max*s > 149*delta``.  Every
    ``sample_stride``-th step is sampled, and so is the last one, into the
    trajectory's one ``(samples, 1 + n)`` table, allocated up front.  A
    ``sample_stride`` that is not an integer of at least 1, a ``p0`` that
    is neither a number nor one value per degree, or a table of more than
    ``MAX_TABLE_BYTES`` (checked before any step) raises ValueError.
    Iterates leaving [0, 1] beyond roundoff, or not finite, raise
    :class:`IntegrationError`.
    """
    _require_same_support(params, state)
    d = params.distribution.float_degrees
    q_hat = state.neighbor_weights()
    delta = params.delta
    if dt is None:
        dt = min(0.01 / delta, STABLE_STEP / (delta + params.distribution.d_max * q_hat.sum()))
    _require_finite_positive(t_end=t_end, dt=dt)
    try:
        stride = operator.index(sample_stride)
    except TypeError:
        stride = 0  # not an integer: fails the range check below
    if stride < 1:
        raise ValueError("sample_stride must be an integer of at least 1")
    p = _initial_probabilities(params, p0)
    steps = max(1, int(round(t_end / dt)))

    rows = steps // stride + (steps % stride != 0) + 1
    size = rows * (1 + p.size) * 8
    if size > MAX_TABLE_BYTES:
        message = f"trajectory table of {rows:,} x {1 + p.size:,} floats needs {size / 2**30:.1f} GiB"
        raise TableSizeError(f"{message}, over the {MAX_TABLE_BYTES / 2**30:g} GiB cap; raise sample_stride")
    table = np.empty((rows, 1 + p.size))
    table[0, 0], table[0, 1:] = 0.0, p
    row = 1
    for k in range(1, steps + 1):
        p = _rk4_step(delta, d, q_hat, p, dt)
        # before the clip, which would hide an unstable step
        _require_unit_interval(p, k * dt)
        np.clip(p, 0.0, 1.0, out=p)
        if k % stride == 0 or k == steps:
            table[row, 0], table[row, 1:] = k * dt, p
            row += 1
    return Trajectory(table, params.distribution.degrees)


def settle_dbmf(params: EpidemicParams, state: SocialState, p0=0.5, dt: float | None = None) -> np.ndarray:
    """Run the ODE until successive unit-time samples differ by < SETTLE_TOL.

    The default step is scaled to the ODE's stiffness,
    ``dt = STABLE_STEP/(delta + d_max*s)`` with ``s = sum(q_hat) <= 1`` the
    unprotected share of edge ends.  The Jacobian
    ``-diag(delta + d*v) + ((1-p)*d) q_hat^T`` is similar, by a diagonal
    scaling, to a symmetric matrix, so its eigenvalues are real; they lie
    in ``[-(delta + d_max*s), d_max*s]`` because ``v <= s`` and
    ``sum d^2 x/<d> <= d_max*s``.  Hence ``z = dt*lambda >= -1.5``.  On
    ``[-1.596, 0]`` RK4's stability polynomial
    ``1 + z + z^2/2 + z^3/6 + z^4/24`` is positive and increasing, so a
    faster mode is damped at least as much as a slower one and no mode
    changes sign.  Past that turning point a fast mode can outlive the
    slow one; the fast modes (the ``-delta`` eigenvectors orthogonal to
    ``q_hat``) have mixed signs, so p goes negative, as seen on
    delta-dominated decaying states from about ``dt = 2.06/(delta +
    d_max*s)`` up.  A fixed point of the RK4 map is a fixed point of the
    ODE, so the settled state does not depend on the step beyond SETTLE_TOL.

    Returns the settled per-degree probabilities.  Raises
    :class:`IntegrationError` as soon as a unit-time sample is not finite
    or lies outside [0, 1] beyond roundoff (an unstable caller-supplied
    ``dt``), and :class:`ConvergenceError` once SETTLE_T_MAX runs out.
    """
    _require_same_support(params, state)
    d = params.distribution.float_degrees
    q_hat = state.neighbor_weights()
    delta = params.delta
    if dt is None:
        dt = STABLE_STEP / (delta + params.distribution.d_max * q_hat.sum())
    _require_finite_positive(dt=dt)
    p = _initial_probabilities(params, p0)

    chunk_steps = max(1, int(round(1.0 / dt)))
    elapsed = 0.0
    while elapsed < SETTLE_T_MAX:
        prev = p.copy()
        for _ in range(chunk_steps):
            p = _rk4_step(delta, d, q_hat, p, dt)
        # before the clip, which would hide an unstable step
        _require_unit_interval(p, elapsed + chunk_steps * dt)
        p = np.clip(p, 0.0, 1.0)
        elapsed += chunk_steps * dt
        if np.max(np.abs(p - prev)) < SETTLE_TOL:
            return p
    raise ConvergenceError(
        f"dynamics not settled within {SETTLE_T_MAX:g} time units", best=p, residual=float(np.max(np.abs(p - prev)))
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
    """Materialize the degree-class adjacency and its spectral radius; ValueError past NIMFA_MAX_DEGREES."""
    _require_same_support(params, state)
    n = params.distribution.size
    if n > NIMFA_MAX_DEGREES:
        raise ValueError(f"nimfa_reduction builds an n x n matrix: n = {n:,}, over the cap of {NIMFA_MAX_DEGREES:,}")
    d = params.distribution.float_degrees
    q_hat = state.neighbor_weights()
    adjacency = np.outer(d, q_hat)  # entry (i, j) = d_i * q_hat_j
    m = adjacency.T / params.delta  # Delta^-1 A^T
    rho = float(np.max(np.abs(np.linalg.eigvals(m))))
    return NimfaReduction(adjacency, rho, reproduction(params, state))
