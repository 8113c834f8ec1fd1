"""The vaccination population game and its unique threshold equilibrium.

Unprotected nodes pay their perceived steady-state infection probability,
vaccinated nodes pay the flat cost c in (0, 1).  Every pure Nash
equilibrium is threshold-structured (all degrees below a threshold stay
unprotected, all above vaccinate, the threshold degree possibly split),
and the family of such candidate states is totally ordered.  The solver
walks that one-dimensional family: the equilibrium condition reduces to
placing K = delta*u/(1-u), u = w^{-1}(c), in a ladder of windows built
from the endemic probabilities of full-threshold states, which is exact
and certifiable rather than a fixed-point iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dbmf import EpidemicParams, SocialState, endemic_state
from .degree import DegreeDistribution
from .weighting import WeightingSpec, weight, weight_inverse

__all__ = [
    "GameSpec",
    "CandidateState",
    "EquilibriumResult",
    "PneCertificate",
    "TrueVsWeightedReport",
    "ThresholdLadder",
    "compare_candidates",
    "unprotected_cost",
    "solve_pne",
    "verify_pne",
    "compare_true_vs_weighted",
]

# Absolute slack when placing K against window edges; ties resolve to the
# boundary representation (fraction = full mass at the threshold).
WINDOW_SLACK = 1e-9


@dataclass(frozen=True)
class GameSpec:
    """One vaccination game: epidemic parameters, perception, cost."""

    params: EpidemicParams
    weighting: WeightingSpec
    cost: float

    def __post_init__(self):
        if not (0.0 < self.cost < 1.0):
            raise ValueError("vaccination cost must lie strictly inside (0, 1)")
        if not self.params.epidemic_can_persist:
            raise ValueError(
                "curing rate must stay below <d^2>/<d>; otherwise the epidemic "
                "dies out regardless of vaccination choices"
            )

    @property
    def distribution(self) -> DegreeDistribution:
        return self.params.distribution


class CandidateState:
    """Threshold-structured social state.

    ``threshold`` is the largest degree with unprotected mass (None when
    everyone vaccinates) and ``fraction`` the unprotected mass there, in
    (0, m_threshold].  Degrees below the threshold are fully unprotected,
    degrees above fully vaccinated.
    """

    def __init__(self, distribution: DegreeDistribution, threshold, fraction=None):
        self.distribution = distribution
        if threshold is None:
            self.threshold = None
            self.fraction = 0.0
        else:
            i = distribution.index_of(threshold)
            f = float(distribution.mass[i] if fraction is None else fraction)
            if not (0.0 < f <= distribution.mass[i] + 1e-15):
                raise ValueError("threshold fraction must lie in (0, m_threshold]")
            self.threshold = int(threshold)
            self.fraction = min(f, float(distribution.mass[i]))

    def social_state(self) -> SocialState:
        return SocialState.from_threshold(self.distribution, self.threshold, self.fraction)

    @property
    def is_all_vaccinated(self) -> bool:
        return self.threshold is None

    def __repr__(self):
        if self.threshold is None:
            return "CandidateState(all vaccinated)"
        return f"CandidateState(threshold={self.threshold}, fraction={self.fraction:.6g})"


def compare_candidates(x1: CandidateState, x2: CandidateState) -> int:
    """Total order on candidate states: -1, 0 or +1.

    Smaller means fewer unprotected nodes: lower threshold first, then
    smaller fraction at an equal threshold.  The everyone-vaccinates state
    is the bottom element.
    """
    if not x1.distribution.same_support(x2.distribution):
        raise ValueError("candidates live on different distributions")
    t1 = -math.inf if x1.threshold is None else x1.threshold
    t2 = -math.inf if x2.threshold is None else x2.threshold
    if t1 != t2:
        return -1 if t1 < t2 else 1
    if x1.fraction != x2.fraction:
        return -1 if x1.fraction < x2.fraction else 1
    return 0


class ThresholdLadder:
    """Endemic probabilities of full-threshold states, computed lazily.

    The ladder depends only on (distribution, delta); it is shared across
    cost and weighting sweeps so each full-threshold fixed point is solved
    once.  Concurrent fills are safe: entries are written idempotently.
    """

    def __init__(self, params: EpidemicParams, tol: float = 1e-12):
        self.params = params
        self.tol = tol
        self._v = {}

    def v_at(self, index: int) -> float:
        """Endemic v of the state with every degree up to ``index`` unprotected."""
        v = self._v.get(index)
        if v is None:
            dist = self.params.distribution
            state = SocialState.from_threshold(dist, int(dist.degrees[index]))
            v = endemic_state(self.params, state, tol=self.tol).v
            self._v[index] = v
        return v


def matching_ladder(params: EpidemicParams, ladder: ThresholdLadder | None) -> ThresholdLadder:
    """``ladder`` if it was built for ``params``, a fresh ladder if None.

    Raises ValueError for a ladder built on another curing rate or degree
    set, whose rungs would answer for the wrong epidemic.
    """
    if ladder is None:
        return ThresholdLadder(params)
    if ladder.params is not params and not (
        ladder.params.delta == params.delta
        and ladder.params.distribution.same_support(params.distribution)
    ):
        raise ValueError("ladder built for different epidemic parameters")
    return ladder


@dataclass(frozen=True)
class EquilibriumResult:
    """The unique pure Nash equilibrium plus its certificate data.

    ``window`` brackets K between the threshold degree and the next degree
    present in the set, both scaled by the equilibrium v; the upper edge is
    infinite at the maximum degree where the condition is vacuous.
    """

    state: CandidateState
    v: float
    K: float
    window: tuple
    interior: bool
    perceived_cost_at_threshold: float
    expected_infected: float
    social_cost: float
    reproduction: float
    degenerate_near_critical: bool = False
    degenerate_window_tie: bool = False
    audit_fired_cases: int | None = None


def unprotected_cost(spec: GameSpec, state: SocialState, degree: int) -> float:
    """Perceived cost w(p_d) of staying unprotected in the given state."""
    i = spec.distribution.index_of(degree)
    endemic = endemic_state(spec.params, state)
    return weight(spec.weighting, float(endemic.p[i]))


def _interior_fraction(spec: GameSpec, index: int, v_star: float) -> float:
    """Unprotected mass at the threshold solving the fixed point at v_star.

    Derived from the endemic equation with every lower degree fully
    unprotected and the threshold degree carrying mass f.
    """
    dist = spec.distribution
    d = dist.degrees.astype(np.float64)
    delta = spec.params.delta
    below = np.sum(d[:index] ** 2 * dist.mass[:index] / (delta + d[:index] * v_star))
    t = d[index]
    return (dist.mean_degree - below) * (delta + t * v_star) / (t * t)


def _result_from_candidate(
    spec: GameSpec,
    cand: CandidateState,
    v: float,
    K: float,
    window,
    interior: bool,
    tie: bool,
    audit: int | None,
) -> EquilibriumResult:
    dist = spec.distribution
    d = dist.degrees.astype(np.float64)
    x = cand.social_state().unprotected
    p = d * v / (spec.params.delta + d * v)
    infected = float(np.sum(x * p))
    psi = infected + spec.cost * (1.0 - float(x.sum()))
    i = dist.index_of(cand.threshold)
    r = float(np.sum(d * d * x) / (spec.params.delta * dist.mean_degree))
    return EquilibriumResult(
        state=cand,
        v=v,
        K=K,
        window=window,
        interior=interior,
        perceived_cost_at_threshold=weight(spec.weighting, float(p[i])),
        expected_infected=infected,
        social_cost=psi,
        reproduction=r,
        degenerate_near_critical=r <= 1.0 + 1e-12,
        degenerate_window_tie=tie,
        audit_fired_cases=audit,
    )


def solve_pne(spec: GameSpec, ladder: ThresholdLadder | None = None, audit: bool = False) -> EquilibriumResult:
    """Compute the unique pure Nash equilibrium of the vaccination game.

    Walks thresholds in ascending degree order.  With v_t the endemic
    probability of the full-threshold state at degree t and K the
    indifference level delta*u/(1-u), the positive axis splits into
    interior windows (t*v_{t-}, t*v_t), where the equilibrium fraction is
    interior and v* = K/t, and boundary windows [t*v_t, succ(t)*v_t],
    where the full-threshold state itself is the equilibrium.  The windows
    tile the axis, so exactly one case fires; ``audit=True`` additionally
    counts exact membership over every window.

    Parameters
    ----------
    spec : GameSpec
    ladder : ThresholdLadder, optional
        Shared cache of full-threshold endemic solves for sweeps.
    audit : bool
        Record the number of windows containing K (must be one).
    """
    ladder = matching_ladder(spec.params, ladder)

    u = weight_inverse(spec.weighting, spec.cost)
    K = spec.params.delta * u / (1.0 - u)
    dist = spec.distribution
    degrees = dist.degrees
    n = degrees.size

    chosen = None
    for j in range(n):
        t = float(degrees[j])
        v_t = ladder.v_at(j)
        if v_t == 0.0:
            # subcritical full-threshold state: zero-width window, and a
            # boundary state with vaccinated mass but zero infection risk
            # can never be an equilibrium
            continue
        lower = t * v_t
        upper = float(degrees[j + 1]) * v_t if j + 1 < n else math.inf
        if K < lower - WINDOW_SLACK:
            # interior at t; the previous window's upper edge guarantees
            # K/t exceeds the previous full-threshold v
            v_star = K / t
            f = _interior_fraction(spec, j, v_star)
            m_t = float(dist.mass[j])
            if not (0.0 < f < m_t + 1e-12):
                raise RuntimeError(
                    f"interior fraction {f!r} outside (0, {m_t!r}) at threshold {t:g}; "
                    "solver tolerance breach"
                )
            cand = CandidateState(dist, int(t), min(f, m_t))
            window = (t * v_star, float(degrees[j + 1]) * v_star if j + 1 < n else math.inf)
            chosen = (cand, v_star, window, True, False, j)
            break
        if K <= upper + WINDOW_SLACK:
            cand = CandidateState(dist, int(t))
            tie = abs(K - lower) <= WINDOW_SLACK or (
                math.isfinite(upper) and abs(K - upper) <= WINDOW_SLACK
            )
            chosen = (cand, v_t, (lower, upper), False, tie, j)
            break
    if chosen is None:  # unreachable: the last window extends to infinity
        raise RuntimeError("threshold scan exhausted without firing a case")

    fired = None
    if audit:
        fired = 0
        prev_upper = 0.0
        for j in range(n):
            t = float(degrees[j])
            v_t = ladder.v_at(j)
            lower = t * v_t
            upper = float(degrees[j + 1]) * v_t if j + 1 < n else math.inf
            if lower < prev_upper - WINDOW_SLACK:
                raise RuntimeError("window ladder is not monotone; solver tolerance breach")
            if prev_upper < K < lower:
                fired += 1
            if lower <= K <= upper:
                fired += 1
            prev_upper = upper

    cand, v, window, interior, tie, _ = chosen
    return _result_from_candidate(spec, cand, v, K, window, interior, tie, fired)


@dataclass
class PneCertificate:
    """Best-response equilibrium check, independent of the solver path.

    For every degree with unprotected mass the perceived unprotected cost
    must not exceed c, and with vaccinated mass it must not fall below c;
    ``max_violation`` is the worst slack over both families.
    """

    max_violation: float
    passed: bool
    tol: float
    violations_by_degree: dict = field(repr=False)


def _as_social_state(spec: GameSpec, state) -> SocialState:
    if isinstance(state, EquilibriumResult):
        return state.state.social_state()
    if isinstance(state, CandidateState):
        return state.social_state()
    if isinstance(state, SocialState):
        return state
    raise TypeError("expected an EquilibriumResult, CandidateState or SocialState")


def verify_pne(spec: GameSpec, state, tol: float = 1e-9) -> PneCertificate:
    """Check the best-response equilibrium conditions for any social state."""
    social = _as_social_state(spec, state)
    endemic = endemic_state(spec.params, social)
    dist = spec.distribution
    by_degree = {}
    worst = 0.0
    for i, degree in enumerate(dist.degrees):
        w_p = weight(spec.weighting, float(endemic.p[i]))
        x_u = float(social.unprotected[i])
        x_v = float(dist.mass[i]) - x_u
        viol = 0.0
        if x_u > 0.0:
            viol = max(viol, w_p - spec.cost)
        if x_v > 1e-15:
            viol = max(viol, spec.cost - w_p)
        by_degree[int(degree)] = viol
        worst = max(worst, viol)
    return PneCertificate(worst, worst <= tol, tol, by_degree)


@dataclass(frozen=True)
class TrueVsWeightedReport:
    """Equilibria under true and weighted perception, with their ordering.

    When c is at least w(c) the true-perception equilibrium cannot exceed
    the weighted one in the candidate order, and conversely; at the
    perception fixed point both games coincide.
    """

    true_result: EquilibriumResult
    weighted_result: EquilibriumResult
    cost: float
    weighted_cost_of_c: float
    ordering: int  # compare_candidates(true, weighted)
    expected_ordering_holds: bool


def compare_true_vs_weighted(spec_true: GameSpec, spec_weighted: GameSpec) -> TrueVsWeightedReport:
    """Solve both games and check the cost-dependent equilibrium ordering."""
    if not spec_true.weighting.is_identity:
        raise ValueError("spec_true must use identity weighting")
    if spec_true.cost != spec_weighted.cost:
        raise ValueError("comparison requires a common vaccination cost")
    if not spec_true.distribution.same_support(spec_weighted.distribution):
        raise ValueError("comparison requires a common distribution")
    if spec_true.params.delta != spec_weighted.params.delta:
        raise ValueError("comparison requires a common curing rate")

    ladder = ThresholdLadder(spec_true.params)
    res_t = solve_pne(spec_true, ladder=ladder)
    res_w = solve_pne(spec_weighted, ladder=ladder)
    c = spec_true.cost
    wc = weight(spec_weighted.weighting, c)
    ordering = compare_candidates(res_t.state, res_w.state)
    if c >= wc:
        holds = ordering <= 0
    else:
        holds = ordering >= 0
    return TrueVsWeightedReport(res_t, res_w, c, wc, ordering, holds)
