"""The vaccination population game and its unique threshold equilibrium.

Unprotected nodes pay their perceived steady-state infection probability,
vaccinated nodes pay the flat cost c in (0, 1).  Every pure Nash
equilibrium is threshold-structured (all degrees below a threshold stay
unprotected, all above vaccinate, the threshold degree possibly split),
and the family of such candidate states is totally ordered.  The
equilibrium condition reduces to placing K = delta*u/(1-u), u = w^{-1}(c),
in a ladder of windows built from the endemic probabilities of
full-threshold states.  The windows are ordered, and whether K reaches a
window edge is the sign of the rung's fixed-point equation at one point,
a sum over the rung's degree prefix.  So the solver gallops and bisects
over the rungs by sign tests and solves a rung's root only when the
equilibrium is that full-threshold state: exact and certifiable, not a
fixed-point iteration.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dbmf import NEAR_CRITICAL_R, EpidemicParams, SocialState, endemic_state, infected_mass, reproduction
from .degree import DegreeDistribution
from .weighting import WeightingSpec, identity, weight, weight_inverse

__all__ = [
    "GameSpec", "CandidateState", "EquilibriumResult", "PneCertificate", "TrueVsWeightedReport", "ThresholdLadder",
    "compare_candidates", "unprotected_cost", "solve_pne", "verify_pne", "compare_true_vs_weighted"
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
    [0, m_threshold], defaulting to the full mass; a zero fraction is the
    full state at the previous degree, or everyone vaccinated at d_min,
    and is stored as that state.  So every threshold state has one
    representation, and a candidate goes wherever a social state does.
    It is kept as ``index`` (the threshold's position, -1 for everyone
    vaccinated) and the fraction, checked in O(1), which is all the n-wide
    check and clip of a social state would find; ``prefix`` (O(threshold))
    and the n-wide ``unprotected`` are built when first read.
    """

    def __init__(self, distribution: DegreeDistribution, threshold, fraction=None):
        i, f = -1, 0.0
        if threshold is not None:
            i = distribution.index_of(threshold)
            m = float(distribution.mass[i])
            f = m if fraction is None else float(fraction)
            if not (0.0 <= f <= m + 1e-15):
                raise ValueError("threshold fraction outside [0, m_d]")
            f = min(f, m)
            if f == 0.0:
                # no mass at the threshold: relabel as the previous full state
                i -= 1
                f = 0.0 if i < 0 else float(distribution.mass[i])
        self.distribution = distribution
        self.index = i
        self.threshold = None if i < 0 else int(distribution.degrees[i])
        self.fraction = f

    @cached_property
    def prefix(self) -> np.ndarray:
        x = self.distribution.mass[: self.index + 1].copy()
        x[self.index :] = self.fraction  # the threshold's entry, none for everyone vaccinated
        x.setflags(write=False)
        return x

    @cached_property
    def unprotected(self) -> np.ndarray:
        x = np.zeros_like(self.distribution.mass)
        x[: self.index + 1] = self.prefix
        x.setflags(write=False)
        return x

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
    """Full-threshold states of one epidemic: prefix sign tests and lazy rungs.

    Rung j is the state with every degree up to the j-th unprotected.  Its
    endemic v_j is the root of g_j(y) = sum_{i<=j} coeff_i/(delta + d_i*y) - 1,
    coeff = m*d^2/<d>, which falls strictly in y; so g_j(y) >= 0 says
    v_j >= y, up to the root's tolerance, with no root solved.
    ``first_endemic`` is the index of the lowest rung with
    R > 1 + NEAR_CRITICAL_R, the degree count if none; R is
    :func:`reproduction` of the rung's state, whose float sum does not
    fall as terms join, so the endemic rungs are a suffix, found by
    bisection, and every rung below it has v = 0.  Each root asked of
    :meth:`v_at` is solved once, on the rung's prefix.  The ladder depends
    only on (distribution, delta), is shared across cost and weighting
    sweeps, and is safe in concurrent use: entries are written idempotently.
    """

    def __init__(self, params: EpidemicParams):
        self.params = params
        dist = params.distribution
        self._d = dist.float_degrees
        self._coeff = dist.mass * (self._d * self._d) / dist.mean_degree
        self.first_endemic = bisect.bisect_left(range(dist.size), True, key=self._endemic)
        self._v = {}

    def _endemic(self, index: int) -> bool:
        dist = self.params.distribution
        state = CandidateState(dist, dist.degrees[index])
        return reproduction(self.params, state) > 1.0 + NEAR_CRITICAL_R

    def g(self, index: int, y: float) -> float:
        """g_j(y) of rung j = ``index``: its sign places y against v_j, over j + 1 degrees."""
        k = index + 1
        return float(np.add.reduce(self._coeff[:k] / (self.params.delta + self._d[:k] * y))) - 1.0

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


def _perceived_risk(spec: GameSpec, index: int, v: float) -> float:
    """w(p_d) at the ``index``-th degree, p_d = d*v/(delta + d*v) in the bits of the n-wide p."""
    d = float(spec.distribution.degrees[index])
    return weight(spec.weighting, d * v / (spec.params.delta + d * v))


def unprotected_cost(spec: GameSpec, state: SocialState, degree: int) -> float:
    """Perceived cost w(p_d) of staying unprotected in the given state."""
    i = spec.distribution.index_of(degree)
    return _perceived_risk(spec, i, endemic_state(spec.params, state).v)


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
    # sums over the threshold's prefix, in the bits of the n-wide sums
    infected = infected_mass(spec.params, cand, v)
    psi = infected + spec.cost * (1.0 - cand.unprotected_mass)
    r = reproduction(spec.params, cand)
    return EquilibriumResult(
        state=cand, v=v, K=K, window=window, interior=interior,
        perceived_cost_at_threshold=_perceived_risk(spec, cand.index, v), expected_infected=infected,
        social_cost=psi, reproduction=r, degenerate_near_critical=r <= 1.0 + NEAR_CRITICAL_R,
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
    the subcritical rungs (v_t = 0).  The solver looks for the first rung
    whose top reaches K.  A probe asks no root: K reaches the top exactly
    when g_t((K - WINDOW_SLACK)/succ(t)) >= 0 (:meth:`ThresholdLadder.g`).
    The probes gallop from the bottom rung (0, 2, 6, 14, ...) and then
    bisect inside the last doubling, so none sums more than 2*j + 1 terms,
    j the threshold's index.  K lies inside the interior window when
    g_t((K + WINDOW_SLACK)/t) > 0; only a boundary equilibrium solves its
    rung's root.  The last window is unbounded: with every rung
    subcritical, nobody vaccinates.  A sweep shares one ``ladder``; past
    its n-wide set-up an equilibrium costs O(threshold).
    """
    ladder = matching_ladder(spec.params, ladder)

    u = weight_inverse(spec.weighting, spec.cost)
    # w^{-1}(c) can round to 1; K then lies past every finite window edge
    K = spec.params.delta * u / (1.0 - u) if u < 1.0 else math.inf
    dist = spec.distribution
    degrees = dist.degrees
    n = degrees.size
    first = ladder.first_endemic

    def edges(j: int, v: float) -> tuple:
        # window edges (t_j*v, t_{j+1}*v), the top unbounded at the last degree
        return float(degrees[j]) * v, (float(degrees[j + 1]) * v if j + 1 < n else math.inf)

    def reaches_k(j: int) -> bool:
        # K at or below rung j's window top; subcritical windows are empty
        if j + 1 == n:
            return True
        if j < first:
            return False
        y = (K - WINDOW_SLACK) / float(degrees[j + 1])
        return y <= 0.0 or ladder.g(j, y) >= 0.0

    lo, hi = 0, 0
    while not reaches_k(hi):
        lo, hi = hi + 1, min(2 * hi + 2, n - 1)
    j = lo + bisect.bisect_left(range(lo, hi), True, key=reaches_k)
    t = float(degrees[j])
    if j >= first and ladder.g(j, (K + WINDOW_SLACK) / t) > 0.0:
        # interior at t: K below the lower edge t*v_t; the previous
        # window's upper edge guarantees K/t exceeds the previous rung's v
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
        v = ladder.v_at(j)
        lower, upper = window = edges(j, v)
        interior = False
        tie = abs(K - lower) <= WINDOW_SLACK or (
            math.isfinite(upper) and abs(K - upper) <= WINDOW_SLACK
        )
    return _result_from_candidate(spec, cand, v, K, window, interior, tie)


@dataclass(frozen=True)
class PneCertificate:
    """Best-response equilibrium check, independent of the solver path.

    For every degree with unprotected mass the perceived unprotected cost
    must not exceed c, and with vaccinated mass it must not fall below c.
    ``max_violation`` is the largest such slack (0 if none), reached at
    ``degree`` (None at 0), and the state passes when it is at most
    ``CERT_TOL``.
    """

    max_violation: float
    passed: bool
    degree: int | None


def verify_pne(spec: GameSpec, state: SocialState) -> PneCertificate:
    """Best-response check of any SocialState at ``CERT_TOL``, decided at two degrees.

    Re-solves the endemic v itself, over the state's prefix; TypeError for
    any other argument.  p_d = d*v/(delta + d*v) rises with d at any
    v >= 0 and w rises strictly, so the worst slack of all degrees is
    w(p) - c at the highest degree with unprotected mass or c - w(p) at
    the lowest with vaccinated mass (above 1e-15), or 0.  A threshold
    state finds both in O(1): the threshold, and the threshold again (an
    interior fraction) or the next degree; any other state in one scan.
    w is evaluated once per degree found, so at most twice.
    """
    if not isinstance(state, SocialState):
        raise TypeError("expected a SocialState")
    v = endemic_state(spec.params, state).v
    dist, c = spec.distribution, spec.cost
    top = state.prefix.size - 1
    if isinstance(state, CandidateState):
        # full mass below the threshold and none above; a mass of exactly 1e-15 is no vaccinated mass
        low = top if top >= 0 and dist.mass[top] - state.fraction > 1e-15 else top + 1
        while low < dist.size and not dist.mass[low] > 1e-15:
            low += 1
    else:
        vaccinated = np.flatnonzero(dist.mass - state.unprotected > 1e-15)
        low = int(vaccinated[0]) if vaccinated.size else dist.size
    w_p = {j: _perceived_risk(spec, j, v) for j in {top, low} if 0 <= j < dist.size}
    worst, where = 0.0, None
    if top >= 0 and w_p[top] - c > worst:
        worst, where = w_p[top] - c, top
    if low < dist.size and c - w_p[low] > worst:
        worst, where = c - w_p[low], low
    degree = None if where is None else int(dist.degrees[where])
    return PneCertificate(worst, worst <= CERT_TOL, degree)


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
