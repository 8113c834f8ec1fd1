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
from functools import cached_property

import numpy as np

from .degree import DegreeDistribution

__all__ = [
    "EpidemicParams", "SocialState", "EndemicState", "Trajectory", "NimfaReduction", "ConsistencyError",
    "ConvergenceError", "IntegrationError", "TableSizeError", "reproduction", "infected_mass", "endemic_state",
    "batch_endemic_v", "integrate_dbmf", "settle_dbmf", "nimfa_reduction"
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
# Largest trajectory table integrate_dbmf fills or streams, in bytes.
MAX_TABLE_BYTES = 2**30
# Rows of each block integrate_dbmf passes to a sink.
BLOCK_ROWS = 64
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


def prefix_sum(head: np.ndarray, n: int) -> float:
    """``np.add.reduce`` of nonnegative ``head`` zero-extended to ``n`` entries, bit for bit.

    numpy (1.9 through 2.x) sums a contiguous float64 array pairwise: a
    leaf of at most 128 entries goes through 8 accumulators (one by one
    under 8), a longer run splits at n/2 rounded down to a multiple of 8.
    A half of zeros adds +0.0, so the sum is that of the leftmost tree
    node covering ``head``, summed here with its zeros, as a leaf's
    grouping depends on its length: at most 128 or about 2*len(head) terms.
    """
    k = head.size
    while n > 128 and k <= n // 2 - n // 2 % 8:
        n = n // 2 - n // 2 % 8
    return float(np.add.reduce(np.concatenate((head, np.zeros(n - k))) if n > k else head))


class SocialState:
    """Per-degree mass of unprotected nodes, keyed to a distribution.

    ``unprotected[i]`` lies in [0, m_i]; the vaccinated mass is implicit.
    ``prefix`` is ``unprotected`` up to its last nonzero entry, which the
    sums over the state read.  Immutable after construction.
    """

    def __init__(self, distribution: DegreeDistribution, unprotected):
        x = np.ascontiguousarray(unprotected, dtype=np.float64)
        _require_unprotected(distribution, x, ndim=1)
        x = np.clip(x, 0.0, distribution.mass)
        x.setflags(write=False)
        self.distribution = distribution
        self.unprotected = x

    @cached_property
    def prefix(self) -> np.ndarray:
        nonzero = np.flatnonzero(self.unprotected)
        return self.unprotected[: nonzero[-1] + 1 if nonzero.size else 0]

    @property
    def unprotected_mass(self) -> float:
        return prefix_sum(self.prefix, self.distribution.size)

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
    per-degree infection probabilities follow as p_d = d*v/(delta + d*v),
    built when ``p`` is first read.  ``degenerate`` marks reproduction
    within float resolution of one, where the positive root is below
    representable resolution.
    """

    params: EpidemicParams = field(repr=False)
    v: float
    reproduction: float
    residual: float
    degenerate: bool = False

    @property
    def endemic(self) -> bool:
        return self.v > 0.0

    @cached_property
    def p(self) -> np.ndarray:
        return _probabilities(self.params, self.v)


def reproduction(params: EpidemicParams, state: SocialState) -> float:
    """Reproduction quantity R(x) = sum d^2 x_{d,U} / (delta <d>), summed over the state's prefix."""
    _require_same_support(params, state)
    x, dist = state.prefix, params.distribution
    d = dist.float_degrees[: x.size]
    return prefix_sum(d * d * x, dist.size) / (params.delta * dist.mean_degree)


def infected_mass(params: EpidemicParams, state: SocialState, v: float) -> float:
    """Expected infected mass sum_d x_d*p_d at the neighbor-infection probability v.

    Summed over the state's prefix, in the bits of the n-wide
    ``np.sum(state.unprotected * p)``: the terms past the prefix are +0.0.
    """
    x = state.prefix
    return prefix_sum(x * _probabilities(params, v, x.size), params.distribution.size)


def _probabilities(params: EpidemicParams, v, width=None) -> np.ndarray:
    """p_d = d*v/(delta + d*v) over the first ``width`` degrees (all by default):
    one row for a scalar v, one per entry of an array."""
    d = params.distribution.float_degrees[:width]
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
    Both sums, g and g', are numpy's pairwise ``np.add.reduce``, not a BLAS
    product, whose kernels add in an order that depends on the CPU; so
    each row's bits do not depend on the BLAS kernel.

    Returns ``(v, |g(v)|)`` per row.  Raises :class:`ConvergenceError` with
    the last iterates and the worst |g| after ``NEWTON_MAX_ITER`` steps.
    """
    v = np.zeros(coeff.shape[0])
    done = np.zeros(v.shape, dtype=bool)
    # two work arrays of the batch's size, reused by every step
    w, terms = np.empty_like(coeff), np.empty_like(coeff)
    for _ in range(NEWTON_MAX_ITER):
        # a finished row keeps its v, so its g is recomputed bit for bit
        np.add(delta, np.multiply(v[:, None], d, out=w), out=w)
        g = np.add.reduce(np.divide(coeff, w, out=terms), axis=1) - 1.0
        step = g / np.add.reduce(np.multiply(np.divide(terms, w, out=w), d, out=w), axis=1)  # g/|g'|
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
    row, over the state's ``prefix``, the degrees up to the last one with
    unprotected mass (the terms past it are exactly zero).  R keeps the
    bits of its sum over every degree.  If its iteration cap runs out, the
    :class:`ConvergenceError` carries the last iterate as an
    :class:`EndemicState`.
    """
    _require_same_support(params, state)
    r = reproduction(params, state)
    if r <= 1.0 + NEAR_CRITICAL_R:
        return EndemicState(params, 0.0, r, residual=0.0, degenerate=r > 1.0)
    try:
        d, coeff = _coefficients(params, state.prefix[None, :])
        v, residual = _endemic_roots(params.delta, d, coeff, ROOT_TOL)
    except ConvergenceError as exc:
        exc.best = EndemicState(params, float(exc.best[0]), r, residual=exc.residual)
        raise
    return EndemicState(params, float(v[0]), r, residual=float(residual[0]))


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
    # R of each row over every degree, a sum that does not depend on the
    # rows beside it: a state is endemic in a batch exactly when it is alone
    d_all = params.distribution.float_degrees
    r = np.sum(d_all * d_all * x, axis=1) / (params.delta * params.distribution.mean_degree)
    active = r > 1.0 + NEAR_CRITICAL_R
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


def _ode_rhs(delta, d, q_hat, p, out, work, theta):
    """out = p' = (1 - p)*d*theta - delta*p with theta = q_hat.p, as d*theta - p*(delta + d*theta).

    ``delta`` holds the curing rate once per degree; ``work`` and the 0-d
    ``theta`` are scratch.  theta is numpy's pairwise ``np.add.reduce``, not
    a BLAS product.
    """
    mul = np.multiply
    np.add.reduce(mul(q_hat, p, work), 0, None, theta)
    mul(d, theta, out)
    mul(p, np.add(delta, out, work), work)
    return np.subtract(out, work, out)


class _RK4:
    """Classical RK4 steps of the mean-field ODE at a fixed ``dt``, in buffers built once.

    A step from p runs the IEEE operations of stage inputs ``p + (0.5*dt)*k``
    and ``p + dt*k3`` and of the update
    ``p + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4)``, in that order, so it gives
    the bits of the allocating formula.  Each constant is an array of one
    value per degree, so no call converts a Python float.  k1 becomes the
    running sum, to which 2*k2 and 2*k3 are added as they come, so k2, k3
    and k4 share one buffer.  ``_ode_rhs`` is looked up as a module global
    four times a step, where a tracer can count the stages.
    """

    def __init__(self, delta, d, q_hat, dt):
        n = d.size
        self.rhs_args = (np.full(n, delta), d, q_hat)
        self.half_dt, self.dt, self.sixth_dt, self.two = (np.full(n, c) for c in (0.5 * dt, dt, dt / 6.0, 2.0))
        self.buffers = (np.empty(n), np.empty(n), np.empty(n), np.empty(n), np.empty(()))

    def step(self, p, out):
        """Write the step from ``p`` into ``out``, which is neither ``p`` nor the kernel's; returns ``out``."""
        add, mul = np.add, np.multiply
        delta, d, q_hat = self.rhs_args
        total, k, stage, work, theta = self.buffers
        half_dt, two = self.half_dt, self.two
        _ode_rhs(delta, d, q_hat, p, total, work, theta)
        add(p, mul(half_dt, total, stage), stage)
        _ode_rhs(delta, d, q_hat, stage, k, work, theta)
        add(p, mul(half_dt, k, stage), stage)
        add(total, mul(two, k, k), total)
        _ode_rhs(delta, d, q_hat, stage, k, work, theta)
        add(p, mul(self.dt, k, stage), stage)
        add(total, mul(two, k, k), total)
        _ode_rhs(delta, d, q_hat, stage, k, work, theta)
        add(total, k, total)
        return add(p, mul(self.sixth_dt, total, total), out)


def _require_unit_interval(p: np.ndarray, t: float):
    """Raise :class:`IntegrationError` unless p is finite and in [0, 1] up to roundoff; then clip p in place."""
    low, high = np.minimum.reduce(p), np.maximum.reduce(p)
    # a NaN makes low or high NaN, which fails
    if not (low >= -1e-9 and high <= 1.0 + 1e-9):
        raise IntegrationError(f"iterate left [0, 1] at t={t:g}; reduce dt")
    if low < 0.0 or high > 1.0:
        np.clip(p, 0.0, 1.0, out=p)


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
    sink=None,
) -> Trajectory | None:
    """Integrate the coupled per-degree infection ODE with classical RK4.

    The system is smooth (one equation per degree), so a fixed step
    suffices.  The default is ``0.01/delta``, or the stiffness-scaled step
    ``STABLE_STEP/(delta + d_max*s)`` of :func:`settle_dbmf` where that is
    smaller, which happens once ``d_max*s > 149*delta``.  Every
    ``sample_stride``-th step is sampled, and so is the last one, into
    ``(samples, 1 + n)`` rows: the time, then one probability per degree.
    Without a ``sink`` the rows fill one table, allocated up front, and
    the trajectory is returned.  With one, they fill one reused
    ``(BLOCK_ROWS, 1 + n)`` buffer, each full block and then the last,
    partial or full, goes to ``sink(block)``, and None is returned.  A
    block shares that buffer's memory and is valid only during the call.
    The sink must not write to it: a sampled step is computed straight
    into its row, so the state the next step starts from may be the
    block's last row.  A ``sample_stride`` that is not an integer of at
    least 1, a ``p0`` that is neither a number nor one value per degree,
    or a table of more than ``MAX_TABLE_BYTES``, streamed or not, which
    includes a ``t_end/dt`` past the float range, raises ValueError before
    any step.  Iterates leaving [0, 1] beyond roundoff, or not finite,
    raise :class:`IntegrationError`.
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
    cap = f"over the {MAX_TABLE_BYTES / 2**30:g} GiB cap"
    ratio = float(t_end) / float(dt)  # Python floats: inf on overflow, with no numpy warning
    if ratio == np.inf:
        raise TableSizeError(f"trajectory of t_end/dt = {t_end:g}/{dt:g} steps, past the float range, is {cap}")
    steps = max(1, int(round(ratio)))

    rows = steps // stride + (steps % stride != 0) + 1
    size = rows * (1 + p.size) * 8
    if size > MAX_TABLE_BYTES:
        message = f"trajectory table of {rows:,} x {1 + p.size:,} floats needs {size / 2**30:.1f} GiB"
        raise TableSizeError(f"{message}, {cap}; raise sample_stride")
    # without a sink the buffer is the whole table and never fills early
    buffer = np.empty((rows if sink is None else min(rows, BLOCK_ROWS), 1 + p.size))
    buffer[0, 0], buffer[0, 1:] = 0.0, p
    rk4 = _RK4(delta, d, q_hat, dt)
    # the steps between samples alternate between two arrays
    first, second = p, np.empty_like(p)
    row = 1
    for k in range(1, steps + 1):
        sampled = k % stride == 0 or k == steps
        if not sampled:
            out = second if p is first else first
        else:
            if row == len(buffer):
                sink(buffer)
                row = 0
            buffer[row, 0] = k * dt
            out = buffer[row, 1:]
            row += 1
        p = rk4.step(p, out)
        _require_unit_interval(p, k * dt)
    if sink is None:
        return Trajectory(buffer, params.distribution.degrees)
    sink(buffer[:row])
    return None


def _with_off_support(params: EpidemicParams, support: np.ndarray, q_hat: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p over every degree: ``p`` on the support, ``d*theta/(delta + d*theta)`` off it, with theta = q_hat.p."""
    full = _probabilities(params, np.add.reduce(q_hat * p))
    full[support] = p
    return full


def settle_dbmf(params: EpidemicParams, state: SocialState, p0=0.5, dt: float | None = None) -> np.ndarray:
    """Run the ODE until successive unit-time samples differ by < SETTLE_TOL.

    Only the unprotected support S = {d : x_d > 0} is stepped.  q_hat is
    zero off S, so theta = q_hat.p, and with it the ODE restricted to S,
    does not depend on the other degrees; at each sample every one of
    those is rebuilt from theta as its fixed point
    ``d*theta/(delta + d*theta)``, and the samples compared are these full
    rows.  The entries of ``p0`` off S are ignored.  With S empty, everyone
    vaccinated, the result is all zeros and nothing is stepped.  A state
    with unprotected mass at every degree steps every column, and its
    result has the bits of a settle that knows nothing of S.

    The default step is scaled to the ODE's stiffness on S,
    ``dt = STABLE_STEP/(delta + max(S)*s)`` with ``s = sum(q_hat) <= 1`` the
    unprotected share of edge ends.  The Jacobian on S,
    ``-diag(delta + d*v) + ((1-p)*d) q_hat^T``, is similar, by a diagonal
    scaling, to a symmetric matrix, so its eigenvalues are real; they lie
    in ``[-(delta + max(S)*s), max(S)*s]`` because ``v <= s`` and
    ``sum d^2 x/<d> <= max(S)*s``.  Hence ``z = dt*lambda >= -1.5``.  On
    ``[-1.596, 0]`` RK4's stability polynomial
    ``1 + z + z^2/2 + z^3/6 + z^4/24`` is positive and increasing, so a
    faster mode is damped at least as much as a slower one and no mode
    changes sign.  Past that turning point a fast mode can outlive the
    slow one; the fast modes (the ``-delta`` eigenvectors orthogonal to
    ``q_hat``) have mixed signs, so p goes negative, as seen on
    delta-dominated decaying states from about ``dt = 2.06/(delta +
    max(S)*s)`` up.  A fixed point of the RK4 map is a fixed point of the
    ODE, so the settled state does not depend on the step beyond SETTLE_TOL.

    Returns the settled per-degree probabilities.  Raises
    :class:`IntegrationError` as soon as a unit-time sample is not finite
    or lies outside [0, 1] beyond roundoff (an unstable caller-supplied
    ``dt``), and :class:`ConvergenceError` once SETTLE_T_MAX runs out,
    carrying the last iterate, rebuilt off S the same way.
    """
    _require_same_support(params, state)
    support = np.flatnonzero(state.unprotected)
    d = params.distribution.float_degrees[support]
    q_hat = state.neighbor_weights()[support]
    delta = params.delta
    if dt is None:
        dt = STABLE_STEP / (delta + d.max(initial=0.0) * q_hat.sum())
    _require_finite_positive(dt=dt)
    p = _initial_probabilities(params, p0)[support]
    if not support.size:
        return np.zeros(params.distribution.size)

    rk4 = _RK4(delta, d, q_hat, dt)
    spare = np.empty_like(p)
    settled = _with_off_support(params, support, q_hat, p)
    chunk_steps = max(1, int(round(1.0 / dt)))
    elapsed = 0.0
    while elapsed < SETTLE_T_MAX:
        for _ in range(chunk_steps):
            p, spare = rk4.step(p, spare), p
        # checked, and clipped, once per unit-time sample
        _require_unit_interval(p, elapsed + chunk_steps * dt)
        elapsed += chunk_steps * dt
        prev, settled = settled, _with_off_support(params, support, q_hat, p)
        change = float(np.max(np.abs(settled - prev)))
        if change < SETTLE_TOL:
            return settled
    raise ConvergenceError(f"dynamics not settled within {SETTLE_T_MAX:g} time units", best=settled, residual=change)


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
