"""Centralized benchmark: social cost, optimal policy, inefficiency.

The planner minimizes the true expected cost of the whole population:
expected infected mass at the endemic state plus total vaccination
expenditure.  The minimizer over all social states is attained on the
threshold-structured candidate family (at most one partially vaccinated
degree, everything below unprotected, everything above vaccinated).

On threshold j (the j-th degree in ascending order) the infected mass
never falls as the threshold fraction grows, and the unprotected mass
never exceeds that of the full state at j.  So every state on threshold
j costs at least

    floor_j(c) = infected(full state at j-1) + c*(1 - U(full state at j)),

where the infected term comes from the shared :class:`ThresholdLadder`
and U is a cumulative sum of the degree masses.  The infected term never
falls as j grows, so the floors stop at the first threshold whose
infected term alone exceeds, by more than ``PRUNE_MARGIN``, the cheapest
candidate passed: everyone vaccinated or a full-threshold state below
it, whose cost the same ladder rung gives.  Only that prefix of rungs is
solved.  The search refines the prefix in ascending floor order and
stops at the first floor above the best cost found (by more than
``PRUNE_MARGIN``), so no threshold that could win is skipped.  A refined
threshold gets a ``GRID_POINTS`` fraction grid, tabulated on first use
and kept across costs, then a golden-section refinement to
``REFINE_WIDTH`` around the grid minimum; the objective is not proven
unimodal in the fraction, hence grid-then-refine rather than pure golden
section.  Every state evaluated or returned is a :class:`CandidateState`,
so a zero fraction needs no special case here; only the fraction grid
lays out its rows by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dbmf import EpidemicParams, SocialState, _probabilities, batch_endemic_v, endemic_state
from .game import (
    CandidateState,
    GameSpec,
    ThresholdLadder,
    compare_candidates,
    matching_ladder,
    solve_pne,
)
from .weighting import weight

__all__ = [
    "SocialCostBreakdown",
    "SocialOptimumSolver",
    "InefficiencyReport",
    "social_cost",
    "solve_social_optimum",
    "inefficiency",
]

# Slack on the floor test.  It sits far above the root solvers' |g| <= 1e-12,
# so rounding in a floor or in a refined cost never prunes the optimum.
PRUNE_MARGIN = 1e-10

# Fraction grid per refined threshold, and the golden-section bracket width
# the refinement stops at.
GRID_POINTS = 1024
REFINE_WIDTH = 1e-10

# Random non-candidate states drawn by the planner's sanity check.
SANITY_STATES = 50


@dataclass(frozen=True)
class SocialCostBreakdown:
    """Total social cost and its two components.

    ``infected_term`` is the expected infected mass at the endemic state,
    ``vaccination_term`` the cost-weighted vaccinated mass; the total is
    their sum by construction.
    """

    total: float
    infected_term: float
    vaccination_term: float


def social_cost(params: EpidemicParams, cost: float, state: SocialState) -> SocialCostBreakdown:
    """Social cost of a state, evaluated with true probabilities."""
    if not (0.0 < cost < 1.0):
        raise ValueError("vaccination cost must lie in (0, 1)")
    endemic = endemic_state(params, state)
    infected = float(np.sum(state.unprotected * endemic.p))
    vaccinated_mass = 1.0 - state.unprotected_mass
    vac = cost * vaccinated_mass
    return SocialCostBreakdown(infected + vac, infected, vac)


def _golden_min(fn, a: float, b: float, width: float):
    """Golden-section minimum of fn on [a, b]; returns the best (x, fn(x)).

    Each point is evaluated once: the ends are evaluated at the close only
    if the bracket never moved them.
    """
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    fa = fb = None
    best = (c, fc) if fc <= fd else (d, fd)
    while b - a > width:
        if fc <= fd:
            b, fb, d, fd = d, fd, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, fa, c, fc = c, fc, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
        cand = (c, fc) if fc <= fd else (d, fd)
        if cand[1] < best[1]:
            best = cand
    for x, fx in ((a, fa), (b, fb)):
        if fx is None:
            fx = fn(x)
        if fx < best[1]:
            best = (x, fx)
    return best


class SocialOptimumSolver:
    """Optimal-policy search with cost-independent work shared across costs.

    The endemic map, hence the infected and unprotected mass of every
    state, does not depend on the vaccination cost.  The floors of each
    cost are read off the ladder, whose rungs are solved once and only as
    far as some cost's floors reach; the fraction table of a threshold is
    tabulated the first time the floor test lets it through and then
    combined with every later cost query.  Pass the ladder of an
    equilibrium sweep over the same parameters as ``ladder`` so its rungs
    are solved once.
    """

    def __init__(self, params: EpidemicParams, ladder: ThresholdLadder | None = None):
        self.params = params
        self.ladder = matching_ladder(params, ladder)
        self._tables = {}

    def floors(self, cost: float) -> np.ndarray:
        """Lower bounds on the social cost of the thresholds that can still win.

        Entry j is ``infected(full state at j-1) + cost*(1 - U(full state
        at j))``, with an empty state below the lowest threshold.  The
        array ends before the first threshold whose infected term exceeds
        the cheapest candidate passed by more than ``PRUNE_MARGIN``: every
        later floor is at least that term, so no later state can win or tie.
        """
        dist = self.params.distribution
        vaccinated = 1.0 - np.cumsum(dist.mass)
        floors, bound, below = [], cost, 0.0
        for j in range(dist.size):
            if below > bound + PRUNE_MARGIN:
                break
            floors.append(below + cost * vaccinated[j])
            p = _probabilities(self.params, self.ladder.v_at(j))
            below = float(np.sum(dist.mass[: j + 1] * p[: j + 1]))
            # the full state at j: the infected term of floor j+1 plus its vaccination cost
            bound = min(bound, below + cost * vaccinated[j])
        return np.array(floors)

    def _table(self, j: int):
        """Fraction grid on threshold j with the infected and unprotected mass of each point."""
        table = self._tables.get(j)
        if table is None:
            dist = self.params.distribution
            f_grid = np.linspace(0.0, float(dist.mass[j]), GRID_POINTS)
            states = np.zeros((GRID_POINTS, dist.size))
            states[:, :j] = dist.mass[:j]
            states[:, j] = f_grid
            p = _probabilities(self.params, batch_endemic_v(self.params, states))
            table = (f_grid, np.sum(states * p, axis=1), states.sum(axis=1))
            self._tables[j] = table
        return table

    def _psi(self, j: int, f: float, cost: float) -> float:
        dist = self.params.distribution
        return social_cost(self.params, cost, CandidateState(dist, dist.degrees[j], f)).total

    def _refine(self, j: int, cost: float):
        """Best ``(fraction, cost)`` on threshold j: grid minimum, then golden section."""
        f_grid, infected, unprotected = self._table(j)
        psi = infected + cost * (1.0 - unprotected)
        k = int(np.argmin(psi))
        lo = f_grid[max(k - 1, 0)]
        hi = f_grid[min(k + 1, f_grid.size - 1)]
        return _golden_min(lambda f: self._psi(j, f, cost), float(lo), float(hi), REFINE_WIDTH)

    @cached_property
    def _sanity_masses(self):
        """Infected and unprotected mass of the seeded random sanity states."""
        dist = self.params.distribution
        states = np.random.default_rng(0).uniform(size=(SANITY_STATES, dist.size)) * dist.mass
        p = _probabilities(self.params, batch_endemic_v(self.params, states))
        return np.sum(states * p, axis=1), states.sum(axis=1)

    def solve(self, cost: float):
        """Minimize the social cost over the candidate family.

        Returns ``(CandidateState, SocialCostBreakdown)``; the state has
        ``threshold=None`` when vaccinating everyone is optimal.  Equal
        costs resolve to the smallest threshold, and a zero refined fraction
        comes back from :class:`CandidateState` as the full state at the
        previous degree (or everyone vaccinated), the one representation of
        that state.  A seeded batch of random non-candidate states, solved
        once per solver, guards the threshold restriction at every cost.
        """
        if not (0.0 < cost < 1.0):
            raise ValueError("vaccination cost must lie in (0, 1)")
        dist = self.params.distribution
        floors = self.floors(cost)

        # everyone vaccinated is the bottom candidate; ties keep it
        best_psi = cost
        refined = {}
        for j in map(int, np.argsort(floors, kind="stable")):
            if floors[j] > best_psi + PRUNE_MARGIN:
                break
            refined[j] = self._refine(j, cost)
            best_psi = min(best_psi, refined[j][1])
        if best_psi < cost:
            # the smallest threshold attaining the minimum, as an ascending scan keeps
            j = min(k for k, (_, psi) in refined.items() if psi == best_psi)
            state = CandidateState(dist, dist.degrees[j], refined[j][0])
        else:
            state = CandidateState(dist, None)
        breakdown = social_cost(self.params, cost, state)

        infected, unprotected = self._sanity_masses
        if np.min(infected + cost * (1.0 - unprotected)) < breakdown.total - 1e-9:
            raise RuntimeError(
                "a non-candidate state beat the candidate-family optimum; "
                "threshold restriction violated"
            )
        return state, breakdown


def solve_social_optimum(params: EpidemicParams, cost: float):
    """One-shot wrapper around :class:`SocialOptimumSolver`."""
    return SocialOptimumSolver(params).solve(cost)


@dataclass(frozen=True)
class InefficiencyReport:
    """Equilibrium vs optimum: ordering, cost gap, and the mean-degree bound.

    The ordering claim (optimum not above the equilibrium) is asserted for
    identity weighting or when the cost weakly exceeds its perceived
    value; otherwise it is skipped, not failed.  The gap bound <d>/delta
    applies to true expectation minimizers.
    """

    pne_state: CandidateState
    optimum_state: CandidateState
    pne_cost: SocialCostBreakdown
    optimum_cost: SocialCostBreakdown
    gap: float
    gap_bound: float
    ordering_checked: bool
    ordering_holds: bool | None


def inefficiency(spec: GameSpec) -> InefficiencyReport:
    """Compare the equilibrium of ``spec`` against the planner's optimum of its epidemic."""
    params = spec.params
    ladder = ThresholdLadder(params)
    pne = solve_pne(spec, ladder=ladder)
    opt_state, opt_cost = SocialOptimumSolver(params, ladder=ladder).solve(spec.cost)
    vaccination = spec.cost * (1.0 - pne.state.unprotected_mass)
    pne_cost = SocialCostBreakdown(pne.social_cost, pne.expected_infected, vaccination)
    gap = pne_cost.total - opt_cost.total
    bound = params.distribution.mean_degree / params.delta

    check = spec.weighting.is_identity or spec.cost >= weight(spec.weighting, spec.cost)
    holds = None
    if check:
        holds = compare_candidates(opt_state, pne.state) <= 0
    return InefficiencyReport(
        pne_state=pne.state,
        optimum_state=opt_state,
        pne_cost=pne_cost,
        optimum_cost=opt_cost,
        gap=gap,
        gap_bound=bound,
        ordering_checked=check,
        ordering_holds=holds,
    )
