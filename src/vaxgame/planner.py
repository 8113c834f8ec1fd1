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
and U is a cumulative sum of the degree masses; neither depends on c.
The search refines thresholds in ascending floor order and stops at the
first floor above the best cost found (by more than ``PRUNE_MARGIN``),
so no threshold that could win is skipped.  A refined threshold gets a
fraction grid, tabulated on first use and kept across costs, then a
golden-section refinement around the grid minimum; the objective is not
proven unimodal in the fraction, hence grid-then-refine rather than pure
golden section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dbmf import EpidemicParams, SocialState, batch_endemic_v, endemic_state
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
    """Golden-section minimum of fn on [a, b]; returns the best (x, fn(x))."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    best = (c, fc) if fc <= fd else (d, fd)
    while b - a > width:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
        cand = (c, fc) if fc <= fd else (d, fd)
        if cand[1] < best[1]:
            best = cand
    for x, fx in ((a, fn(a)), (b, fn(b))):
        if fx < best[1]:
            best = (x, fx)
    return best


class SocialOptimumSolver:
    """Optimal-policy search with cost-independent work shared across costs.

    The endemic map, hence the infected and unprotected mass of every
    state, does not depend on the vaccination cost.  The floor terms (one
    ladder rung per threshold) are computed once; the fraction table of a
    threshold is tabulated the first time the floor test lets it through
    and then combined with every later cost query.  Pass the ladder of an
    equilibrium sweep over the same parameters as ``ladder`` so its rungs
    are solved once.
    """

    def __init__(
        self,
        params: EpidemicParams,
        grid_points: int = 1024,
        refine_width: float = 1e-10,
        ladder: ThresholdLadder | None = None,
    ):
        if grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        self.params = params
        self.grid_points = grid_points
        self.refine_width = refine_width
        self.ladder = matching_ladder(params, ladder)
        self._tables = {}
        self._floor_terms = None

    def floors(self, cost: float) -> np.ndarray:
        """Lower bound on the social cost of every state on each threshold.

        Entry j is ``infected(full state at j-1) + cost*(1 - U(full state
        at j))``, with an empty state below the lowest threshold.
        """
        if self._floor_terms is None:
            dist = self.params.distribution
            d = dist.degrees.astype(np.float64)
            infected_below = np.zeros(dist.size)
            for j in range(1, dist.size):
                v = self.ladder.v_at(j - 1)
                p = d[:j] * v / (self.params.delta + d[:j] * v)
                infected_below[j] = np.sum(dist.mass[:j] * p)
            self._floor_terms = (infected_below, np.cumsum(dist.mass))
        infected_below, unprotected = self._floor_terms
        return infected_below + cost * (1.0 - unprotected)

    def _table(self, j: int):
        """Fraction grid on threshold j with the infected and unprotected mass of each point."""
        table = self._tables.get(j)
        if table is None:
            dist = self.params.distribution
            d = dist.degrees.astype(np.float64)
            f_grid = np.linspace(0.0, float(dist.mass[j]), self.grid_points)
            states = np.zeros((self.grid_points, dist.size))
            states[:, :j] = dist.mass[:j]
            states[:, j] = f_grid
            v = batch_endemic_v(self.params, states)
            p = d * v[:, None] / (self.params.delta + d * v[:, None])
            table = (f_grid, np.sum(states * p, axis=1), states.sum(axis=1))
            self._tables[j] = table
        return table

    def _psi(self, j: int, f: float, cost: float) -> float:
        state = SocialState.from_threshold(
            self.params.distribution, int(self.params.distribution.degrees[j]), f
        )
        return social_cost(self.params, cost, state).total

    def _refine(self, j: int, cost: float):
        """Best ``(fraction, cost)`` on threshold j: grid minimum, then golden section."""
        f_grid, infected, unprotected = self._table(j)
        psi = infected + cost * (1.0 - unprotected)
        k = int(np.argmin(psi))
        lo = f_grid[max(k - 1, 0)]
        hi = f_grid[min(k + 1, f_grid.size - 1)]
        return _golden_min(lambda f: self._psi(j, f, cost), float(lo), float(hi), self.refine_width)

    def solve(self, cost: float, sanity_states: int = 50):
        """Minimize the social cost over the candidate family.

        Returns ``(CandidateState, SocialCostBreakdown)``; the state has
        ``threshold=None`` when vaccinating everyone is optimal.  Ties
        across representations resolve to the smaller candidate in the
        threshold-then-fraction order, and a seeded batch of random
        non-candidate states guards the threshold restriction.
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
        j, f = None, 0.0
        if best_psi < cost:
            # the smallest threshold attaining the minimum, as an ascending scan keeps
            j = min(k for k, (_, psi) in refined.items() if psi == best_psi)
            f = float(refined[j][0])
        if j is None or f <= 0.0:
            # a zero fraction duplicates the previous full-threshold state
            j = None if j in (None, 0) else j - 1
            f = float(dist.mass[j]) if j is not None else 0.0
        if j is None:
            state = CandidateState(dist, None)
        else:
            state = CandidateState(dist, int(dist.degrees[j]), f)
        breakdown = social_cost(self.params, cost, state.social_state())

        if sanity_states:
            rng = np.random.default_rng(0)
            random_states = rng.uniform(size=(sanity_states, dist.size)) * dist.mass
            v = batch_endemic_v(self.params, random_states)
            d = dist.degrees.astype(np.float64)
            p = d * v[:, None] / (self.params.delta + d * v[:, None])
            psi_rand = np.sum(random_states * p, axis=1) + cost * (
                1.0 - random_states.sum(axis=1)
            )
            if np.min(psi_rand) < breakdown.total - 1e-9:
                raise RuntimeError(
                    "a non-candidate state beat the candidate-family optimum; "
                    "threshold restriction violated"
                )
        return state, breakdown


def solve_social_optimum(
    params: EpidemicParams,
    cost: float,
    grid_points: int = 1024,
    refine_width: float = 1e-10,
):
    """One-shot wrapper around :class:`SocialOptimumSolver`."""
    return SocialOptimumSolver(params, grid_points, refine_width).solve(cost)


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


def inefficiency(params: EpidemicParams, spec: GameSpec) -> InefficiencyReport:
    """Compare the equilibrium against the planner's optimum."""
    if spec.params is not params and not (
        spec.params.delta == params.delta
        and spec.params.distribution.same_support(params.distribution)
    ):
        raise ValueError("game spec uses different epidemic parameters")
    ladder = ThresholdLadder(params)
    pne = solve_pne(spec, ladder=ladder)
    opt_state, opt_cost = SocialOptimumSolver(params, ladder=ladder).solve(spec.cost)
    pne_cost = social_cost(params, spec.cost, pne.state.social_state())
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
