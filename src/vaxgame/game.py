"""The vaccination population game and its unique threshold equilibrium.

Unprotected nodes pay their perceived steady-state infection probability,
vaccinated nodes pay the flat cost c in (0, 1).  Every pure Nash
equilibrium is threshold-structured (all degrees below a threshold stay
unprotected, all above vaccinate, the threshold degree possibly split),
and the family of such candidate states is totally ordered.  The
equilibrium condition reduces to placing K = delta*u/(1-u), u = w^{-1}(c),
in a ladder of windows built from the endemic probabilities of
full-threshold states.  The windows are ordered, so the solver bisects for
the one holding K: exact and certifiable, not a fixed-point iteration.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .dbmf import NEAR_CRITICAL_R, EpidemicParams, SocialState, _probabilities, endemic_state, reproduction
from .degree import DegreeDistribution
from .weighting import WeightingSpec, identity, weight, weight_inverse

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
# Largest best-response violation a certified equilibrium may show.
CERT_TOL = 1e-8


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


class CandidateState(SocialState):
    """Threshold-structured social state, in canonical form.

    ``threshold`` is the largest degree with unprotected mass (None when
    everyone vaccinates) and ``fraction`` the unprotected mass there, in
    (0, m_threshold].  Degrees below the threshold are fully unprotected,
    degrees above fully vaccinated.  The constructor takes a fraction in
    [0, m_threshold], defaulting to the full mass; a zero fraction builds
    the same array as the full state at the previous degree, or as
    everyone vaccinated at d_min, and is stored as that state.  So every
    threshold state has one representation, and a candidate goes wherever
    a social state does.
    """

    def __init__(self, distribution: DegreeDistribution, threshold, fraction=None):
        x = np.zeros_like(distribution.mass)
        f = 0.0
        if threshold is not None:
            i = distribution.index_of(threshold)
            m = float(distribution.mass[i])
            f = m if fraction is None else float(fraction)
            if not (0.0 <= f <= m + 1e-15):
                raise ValueError("threshold fraction outside [0, m_d]")
            x[:i] = distribution.mass[:i]
            x[i] = f = min(f, m)
            if f == 0.0:
                # no mass at the threshold: relabel as the previous full state
                threshold = None if i == 0 else distribution.degrees[i - 1]
                f = 0.0 if i == 0 else float(distribution.mass[i - 1])
        super().__init__(distribution, x)
        self.threshold = None if threshold is None else int(threshold)
        self.fraction = f

    @classmethod
    def all_unprotected(cls, distribution: DegreeDistribution) -> "CandidateState":
        """The top candidate: threshold d_max at its full mass."""
        return cls(distribution, distribution.d_max)

    @classmethod
    def all_vaccinated(cls, distribution: DegreeDistribution) -> "CandidateState":
        """The bottom candidate: everyone vaccinated."""
        return cls(distribution, None)

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

    def __init__(self, params: EpidemicParams):
        self.params = params
        self._v = {}

    def v_at(self, index: int) -> float:
        """Endemic v of the state with every degree up to ``index`` unprotected."""
        v = self._v.get(index)
        if v is None:
            dist = self.params.distribution
            v = endemic_state(self.params, CandidateState(dist, dist.degrees[index])).v
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
        raise ValueError("epidemic parameters do not match: another curing rate or degree set")
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
    d = dist.float_degrees
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
) -> EquilibriumResult:
    p = _probabilities(spec.params, v)
    infected = float(np.sum(cand.unprotected * p))
    psi = infected + spec.cost * (1.0 - cand.unprotected_mass)
    i = spec.distribution.index_of(cand.threshold)
    r = reproduction(spec.params, cand)
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
        degenerate_near_critical=r <= 1.0 + NEAR_CRITICAL_R,
        degenerate_window_tie=tie,
    )


def solve_pne(spec: GameSpec, ladder: ThresholdLadder | None = None) -> EquilibriumResult:
    """Compute the unique pure Nash equilibrium of the vaccination game.

    With v_t the endemic probability of the full-threshold state at degree
    t and K the indifference level delta*u/(1-u), the positive axis splits
    into interior windows (t*v_{t-}, t*v_t), where the equilibrium fraction
    is interior and v* = K/t, and boundary windows [t*v_t, succ(t)*v_t],
    where the full-threshold state itself is the equilibrium.  The windows
    tile the axis in degree order, with tops succ(t)*v_t growing in t past
    the subcritical rungs (v_t = 0), so a bisection finds the first rung
    whose top reaches K and solves only the rungs it probes.  The last
    window is unbounded: with every rung subcritical, nobody vaccinates.

    Parameters
    ----------
    spec : GameSpec
    ladder : ThresholdLadder, optional
        Shared cache of full-threshold endemic solves for sweeps.
    """
    ladder = matching_ladder(spec.params, ladder)

    u = weight_inverse(spec.weighting, spec.cost)
    # w^{-1}(c) can round to 1; K then lies past every finite window edge
    K = spec.params.delta * u / (1.0 - u) if u < 1.0 else math.inf
    dist = spec.distribution
    degrees = dist.degrees
    n = degrees.size

    def edges(j: int, v: float) -> tuple:
        # window edges (t_j*v, t_{j+1}*v), the top unbounded at the last degree
        return float(degrees[j]) * v, (float(degrees[j + 1]) * v if j + 1 < n else math.inf)

    def reaches_k(j: int) -> bool:
        # K at or below rung j's window top; subcritical windows are empty
        if j + 1 == n:
            return True
        v_j = ladder.v_at(j)
        return v_j > 0.0 and K <= edges(j, v_j)[1] + WINDOW_SLACK

    j = bisect.bisect_left(range(n), True, key=reaches_k)
    t = float(degrees[j])
    v_t = ladder.v_at(j)
    lower, upper = edges(j, v_t)
    if K < lower - WINDOW_SLACK:
        # interior at t; the previous window's upper edge guarantees K/t
        # exceeds the previous full-threshold v
        v = K / t
        f = _interior_fraction(spec, j, v)
        m_t = float(dist.mass[j])
        if not (0.0 < f < m_t + 1e-12):
            raise RuntimeError(
                f"interior fraction {f!r} outside (0, {m_t!r}) at threshold {t:g}; "
                "solver tolerance breach"
            )
        cand = CandidateState(dist, int(t), min(f, m_t))
        window = edges(j, v)
        interior, tie = True, False
    else:
        cand = CandidateState(dist, int(t))
        v, window, interior = v_t, (lower, upper), False
        tie = abs(K - lower) <= WINDOW_SLACK or (
            math.isfinite(upper) and abs(K - upper) <= WINDOW_SLACK
        )
    return _result_from_candidate(spec, cand, v, K, window, interior, tie)


@dataclass
class PneCertificate:
    """Best-response equilibrium check, independent of the solver path.

    For every degree with unprotected mass the perceived unprotected cost
    must not exceed c, and with vaccinated mass it must not fall below c.
    ``violations`` is that slack per degree, aligned with the distribution's
    ``degrees`` (0 where neither is violated); ``max_violation`` is its
    maximum, and the state passes when it is at most ``CERT_TOL``.
    """

    max_violation: float
    passed: bool
    violations: np.ndarray = field(repr=False)


def verify_pne(spec: GameSpec, state: SocialState) -> PneCertificate:
    """Best-response check of any SocialState at ``CERT_TOL``.

    Re-solves the endemic state itself; TypeError for any other argument.
    """
    if not isinstance(state, SocialState):
        raise TypeError("expected a SocialState")
    endemic = endemic_state(spec.params, state)
    w_p = weight(spec.weighting, endemic.p)
    x_u = state.unprotected
    x_v = spec.distribution.mass - x_u
    # masked-out families read 0, so the slack is never negative
    viol = np.maximum(
        np.where(x_u > 0.0, w_p - spec.cost, 0.0),
        np.where(x_v > 1e-15, spec.cost - w_p, 0.0),
    )
    worst = float(viol.max())
    return PneCertificate(worst, worst <= CERT_TOL, viol)


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


def compare_true_vs_weighted(spec: GameSpec) -> TrueVsWeightedReport:
    """Solve ``spec`` and its twin under identity weighting; check the equilibrium ordering."""
    ladder = ThresholdLadder(spec.params)
    res_t = solve_pne(GameSpec(spec.params, identity(), spec.cost), ladder=ladder)
    res_w = solve_pne(spec, ladder=ladder)
    c = spec.cost
    wc = weight(spec.weighting, c)
    ordering = compare_candidates(res_t.state, res_w.state)
    holds = ordering <= 0 if c >= wc else ordering >= 0
    return TrueVsWeightedReport(res_t, res_w, c, wc, ordering, holds)
