"""Shared generators and oracles for the test suite."""

import math

import numpy as np

from vaxgame import (
    DegreeDistribution,
    EpidemicParams,
    GameSpec,
    ThresholdLadder,
    batch_endemic_v,
    dbmf,
    game,
    weight_inverse,
)
from vaxgame.game import WINDOW_SLACK, _interior_fraction


def random_distribution(rng, max_degrees=6, degree_pool=30):
    """Random degree set (gaps allowed) with normalized random mass."""
    n = int(rng.integers(2, max_degrees + 1))
    degrees = np.sort(rng.choice(np.arange(1, degree_pool + 1), size=n, replace=False))
    mass = rng.uniform(0.15, 1.0, size=n)
    mass = mass / mass.sum()
    return DegreeDistribution(degrees, mass)


def random_params(rng, dist, lo=0.25, hi=0.85):
    """Epidemic parameters with delta a random fraction of <d^2>/<d>,
    which keeps the vaccination game nondegenerate."""
    ratio = dist.second_moment / dist.mean_degree
    return EpidemicParams(float(rng.uniform(lo, hi) * ratio), dist)


def count_rk4_steps(monkeypatch):
    """Count RK4 steps from here on; returns a callable giving the count.

    Wraps ``vaxgame.dbmf._ode_rhs``, which the integrators look up as a
    module global once per stage, four stages a step: the same seam
    ``bench/tracing.py`` counts right-hand-side evaluations through.
    """
    rhs = dbmf._ode_rhs
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return rhs(*args)

    monkeypatch.setattr(dbmf, "_ode_rhs", counted)
    return lambda: calls // 4


def count_rung_fills(monkeypatch):
    """Count ladder rungs filled from here on; returns a callable giving the count.

    Wraps ``vaxgame.game.endemic_state``, which ``ThresholdLadder.v_at``
    looks up as a module global once per rung it fills.  The planner's own
    solves go through ``vaxgame.planner``'s name, so in a planner-only run
    the count is the rungs filled.
    """
    solve = game.endemic_state
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    monkeypatch.setattr(game, "endemic_state", counted)
    return lambda: calls


def record_root_widths(monkeypatch):
    """Record the width of every endemic root solve from here on.

    Wraps ``vaxgame.dbmf._endemic_roots``, the one Newton kernel behind
    ``endemic_state`` and ``batch_endemic_v``, and returns the list it
    appends ``coeff.shape[1]`` to: the number of degree columns a solve
    iterates on.
    """
    roots = dbmf._endemic_roots
    widths = []

    def recorded(delta, d, coeff, tol):
        widths.append(coeff.shape[1])
        return roots(delta, d, coeff, tol)

    monkeypatch.setattr(dbmf, "_endemic_roots", recorded)
    return widths


def weight_array(spec, probs):
    """Vectorized perception for oracle code; endpoint-safe."""
    p = np.asarray(probs, dtype=np.float64)
    if spec.is_identity:
        return p.copy()
    out = np.empty_like(p)
    inner = (p > 0.0) & (p < 1.0)
    out[~inner] = p[~inner]
    out[inner] = np.exp(-((-np.log(p[inner])) ** spec.alpha))
    return out


def best_response_violation(spec, unprotected, v):
    """Worst unilateral-deviation incentive of a social state.

    For degrees carrying unprotected mass the perceived infection cost may
    not exceed the vaccination cost; for degrees carrying vaccinated mass
    it may not fall below it.
    """
    dist = spec.distribution
    d = dist.degrees.astype(np.float64)
    p = d * v[:, None] / (spec.params.delta + d * v[:, None])
    w = weight_array(spec.weighting, p)
    unpro = unprotected > 0.0
    vacc = (dist.mass - unprotected) > 1e-15
    viol = np.zeros_like(w)
    viol = np.where(unpro, np.maximum(viol, w - spec.cost), viol)
    viol = np.where(vacc, np.maximum(viol, spec.cost - w), viol)
    return viol.max(axis=1)


def bisect_endemic_v(params, unprotected):
    """Endemic v of each row of unprotected mass, by plain bisection.

    An oracle for the library's root kernel that shares none of its code:
    g(v) = sum_d d^2*x_d/(<d>*(delta + d*v)) - 1 is halved on [0, 1]
    until every midpoint stops moving in floating point.  Rows with
    g(0) <= 0 give 0; the library also gives 0 for R <= 1 + 1e-12.
    """
    dist = params.distribution
    d = dist.degrees.astype(np.float64)
    x = np.atleast_2d(np.asarray(unprotected, dtype=np.float64))

    def g(v):
        return np.sum(d * d * x / (dist.mean_degree * (params.delta + np.outer(v, d))), axis=1) - 1.0

    lo = np.zeros(x.shape[0])
    hi = np.where(g(lo) > 0.0, 1.0, 0.0)
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return mid
        pos = g(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)


def walk_pne(spec: GameSpec, ladder=None):
    """Reference placement of K: walk the ladder's windows rung by rung.

    Independent of the solver's bisection; fills every rung.  Returns
    ``(placement, count)``.  ``placement`` is (threshold, fraction, v,
    window, tie) of the first window holding K up to WINDOW_SLACK, which
    ``solve_pne`` must reproduce bit for bit.  ``count`` is the number of
    windows holding K over every rung, interior ones with
    prev_upper < K < lower and boundary ones with lower <= K <= upper: one
    for a unique equilibrium.  Raises AssertionError when a lower edge
    falls below the previous upper edge by more than WINDOW_SLACK, the
    order the bisection relies on.
    """
    ladder = ThresholdLadder(spec.params) if ladder is None else ladder
    u = weight_inverse(spec.weighting, spec.cost)
    K = spec.params.delta * u / (1.0 - u) if u < 1.0 else math.inf
    dist = spec.distribution
    degrees = dist.degrees
    n = degrees.size
    placement, count, prev_upper = None, 0, 0.0
    for j in range(n):
        t = float(degrees[j])
        v_t = ladder.v_at(j)
        lower = t * v_t
        upper = float(degrees[j + 1]) * v_t if j + 1 < n else math.inf
        if lower < prev_upper - WINDOW_SLACK:
            raise AssertionError(f"window ladder is not monotone at rung {j}: {lower!r} < {prev_upper!r}")
        count += (prev_upper < K < lower) + (lower <= K <= upper)
        prev_upper = upper
        if placement is not None or (v_t == 0.0 and j + 1 < n):
            continue
        if K < lower - WINDOW_SLACK:
            v_star = K / t
            f = min(_interior_fraction(spec, j, v_star), float(dist.mass[j]))
            top = float(degrees[j + 1]) * v_star if j + 1 < n else math.inf
            placement = (int(t), f, v_star, (t * v_star, top), False)
        elif K <= upper + WINDOW_SLACK:
            tie = abs(K - lower) <= WINDOW_SLACK or (
                math.isfinite(upper) and abs(K - upper) <= WINDOW_SLACK
            )
            placement = (int(t), float(dist.mass[j]), v_t, (lower, upper), tie)
    assert placement is not None, "the last window is unbounded"
    return placement, count


def brute_force_pne(spec: GameSpec, grid: int = 1000):
    """Grid search for the equilibrium, independent of the threshold scan.

    Enumerates every candidate state on a relative fraction grid of
    ``grid`` points per threshold, scores each by its worst best-response
    violation, and returns ``(threshold, fraction, violation)`` of the
    minimizer.
    """
    dist = spec.distribution
    best = (None, None, np.inf)
    for j in range(dist.size):
        m_t = float(dist.mass[j])
        fracs = np.arange(1, grid + 1, dtype=np.float64) / grid * m_t
        states = np.zeros((grid, dist.size))
        states[:, :j] = dist.mass[:j]
        states[:, j] = fracs
        v = batch_endemic_v(spec.params, states)
        viol = best_response_violation(spec, states, v)
        k = int(np.argmin(viol))
        if viol[k] < best[2]:
            best = (int(dist.degrees[j]), float(fracs[k]), float(viol[k]))
    return best


def brute_force_social_optimum(params, costs, grid: int):
    """Grid search for the planner's optimum, independent of its search.

    Scores every threshold state on a relative fraction grid of ``grid``
    points per threshold, plus the everyone-vaccinates state, by the true
    social cost: infected mass at the endemic state plus the cost times
    the vaccinated mass.  Neither mass depends on the cost, so both are
    tabulated once.  Returns one ``(total, threshold, fraction)`` per
    cost, the threshold being None for the everyone-vaccinates state.
    """
    dist = params.distribution
    d = dist.degrees.astype(np.float64)
    states = [np.zeros((1, dist.size))]
    labels = [(None, 0.0)]
    for j in range(dist.size):
        fracs = np.arange(1, grid + 1, dtype=np.float64) / grid * float(dist.mass[j])
        block = np.zeros((grid, dist.size))
        block[:, :j] = dist.mass[:j]
        block[:, j] = fracs
        states.append(block)
        labels.extend((int(dist.degrees[j]), float(f)) for f in fracs)
    states = np.vstack(states)
    v = batch_endemic_v(params, states)
    p = d * v[:, None] / (params.delta + d * v[:, None])
    infected = np.sum(states * p, axis=1)
    vaccinated = 1.0 - states.sum(axis=1)
    best = []
    for c in costs:
        total = infected + c * vaccinated
        k = int(np.argmin(total))
        best.append((float(total[k]),) + labels[k])
    return best


def eradication_boundary(params):
    """Threshold, fraction and unprotected mass of the R = 1 state.

    R is linear in the unprotected mass, so the infection-free state with
    the fewest vaccinated nodes leaves degrees unprotected in ascending
    order until sum d^2 m_d reaches delta*<d>; the remainder over t^2 is
    the fraction at the threshold t.
    """
    dist = params.distribution
    d = dist.degrees.astype(np.float64)
    need = params.delta * dist.mean_degree
    cum = np.cumsum(d * d * dist.mass)
    j = int(np.searchsorted(cum, need))
    fraction = (need - (float(cum[j - 1]) if j else 0.0)) / d[j] ** 2
    return int(dist.degrees[j]), fraction, float(dist.mass[:j].sum()) + fraction


def states_within_one_step(dist, oracle, solved, grid=1000):
    """True if the oracle grid point sits within one grid step of the
    solved candidate, counting steps across a threshold junction."""
    t_o, f_o = oracle
    t_s, f_s = solved
    j_o, j_s = dist.index_of(t_o), dist.index_of(t_s)
    if j_o == j_s:
        step = float(dist.mass[j_o]) / grid
        return abs(f_o - f_s) <= 1.5 * step
    lo, hi = min(j_o, j_s), max(j_o, j_s)
    if hi - lo != 1:
        return False
    # junction: full mass at the lower threshold vs one step into the upper
    f_lo = f_o if j_o == lo else f_s
    f_hi = f_o if j_o == hi else f_s
    step_hi = float(dist.mass[hi]) / grid
    return abs(f_lo - float(dist.mass[lo])) <= 1.5 * float(dist.mass[lo]) / grid and (
        f_hi <= 1.5 * step_hi
    )
