"""Centralized benchmark: social cost, optimal policy, inefficiency.

The planner minimizes the true expected cost of the whole population,
``psi(x) = I(x) + c*(1 - U(x))``: expected infected mass I at the endemic
state plus the vaccination expenditure, with U the unprotected mass.
The minimizer over all social states is the eradication-boundary state
x*, which fills degrees unprotected in ascending order until
``sum d^2 x_d`` reaches ``delta*<d>``:

- The residual state is critical.  At an endemic fixed point
  ``p_d = d*v/(delta + d*v)``, and ``y = x*(1 - p)`` has
  ``R(y) = sum d^2 x_d/(<d>*(delta + d*v)) = 1``, which is ``g(v) = 0``
  rewritten; a disease-free x is its own residual, with ``R <= 1``.
- Ascending order holds the most unprotected mass.  Among states with
  ``R <= 1`` (``sum d^2 y_d <= delta*<d>``, ``0 <= y_d <= m_d``) the
  unprotected mass is a fractional knapsack with weight ``d^2`` per unit,
  so it is largest, at U*, on x*.
- Hence ``I(x) = U(x) - U(y) >= U(x) - U*`` for every state x.  If
  ``U >= U*`` then ``psi >= c*(1 - U*) + (1 - c)*(U - U*)``, otherwise
  ``psi >= c*(1 - U) > c*(1 - U*)``; equality needs ``U = U*`` and
  ``I = 0``, which holds only at x*.

So the search refines one threshold, the one x* lies on, found once per
solver from a cumulative sum.  It keeps the ``GRID_POINTS`` fraction
grid, tabulated on first use and reused across costs, then a
golden-section refinement to ``REFINE_WIDTH`` around the grid minimum;
the computed objective is not proven unimodal in the fraction, hence
grid-then-refine rather than pure golden section.  Everyone vaccinated
stays the bottom candidate.  Its numbers are thus those of a search that
refines every threshold.  Every state evaluated
or returned is a :class:`CandidateState`, so a zero fraction needs no
special case here; only the fraction grid lays out its rows by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dbmf import EpidemicParams, SocialState, _probabilities, batch_endemic_v, endemic_state, infected_mass
from .game import CandidateState, GameSpec, compare_candidates, solve_pne
from .weighting import weight

__all__ = [
    "SocialCostBreakdown",
    "SocialOptimumSolver",
    "InefficiencyReport",
    "social_cost",
    "solve_social_optimum",
    "inefficiency",
]

# Fraction grid on the refined threshold, and the golden-section bracket width
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
    """Social cost of a state, evaluated with true probabilities over its prefix."""
    if not (0.0 < cost < 1.0):
        raise ValueError("vaccination cost must lie in (0, 1)")
    infected = infected_mass(params, state, endemic_state(params, state).v)
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
    """Optimal-policy search on the eradication-boundary threshold.

    The boundary index and its fraction table do not depend on the
    vaccination cost: both are computed once per solver and combined with
    every later cost query, as is the batch of random sanity states.
    """

    def __init__(self, params: EpidemicParams):
        self.params = params

    @cached_property
    def _boundary(self) -> int:
        """Index of the threshold holding the eradication-boundary state.

        The first degree at which the cumulative sum of ``d^2 m_d`` reaches
        ``delta*<d>``; the last degree when no prefix does, so that the
        everyone-unprotected state lies on it.
        """
        dist = self.params.distribution
        d = dist.degrees.astype(np.float64)
        need = self.params.delta * dist.mean_degree
        return min(int(np.searchsorted(np.cumsum(d * d * dist.mass), need)), dist.size - 1)

    @cached_property
    def _table(self):
        """Fraction grid on the boundary threshold with the infected and unprotected mass of each point."""
        dist, j = self.params.distribution, self._boundary
        f_grid = np.linspace(0.0, float(dist.mass[j]), GRID_POINTS)
        states = np.zeros((GRID_POINTS, dist.size))
        states[:, :j] = dist.mass[:j]
        states[:, j] = f_grid
        p = _probabilities(self.params, batch_endemic_v(self.params, states))
        return f_grid, np.sum(states * p, axis=1), states.sum(axis=1)

    def _refine(self, cost: float):
        """Best ``(fraction, cost)`` on the boundary threshold: grid minimum, then golden section."""
        f_grid, infected, unprotected = self._table
        psi = infected + cost * (1.0 - unprotected)
        k = int(np.argmin(psi))
        lo = f_grid[max(k - 1, 0)]
        hi = f_grid[min(k + 1, f_grid.size - 1)]
        dist = self.params.distribution
        threshold = dist.degrees[self._boundary]

        def psi_at(f):
            return social_cost(self.params, cost, CandidateState(dist, threshold, f)).total

        return _golden_min(psi_at, float(lo), float(hi), REFINE_WIDTH)

    @cached_property
    def _sanity_masses(self):
        """Infected and unprotected mass of the seeded random sanity states."""
        dist = self.params.distribution
        states = np.random.default_rng(0).uniform(size=(SANITY_STATES, dist.size)) * dist.mass
        p = _probabilities(self.params, batch_endemic_v(self.params, states))
        return np.sum(states * p, axis=1), states.sum(axis=1)

    def solve(self, cost: float):
        """Minimize the social cost: the boundary threshold or everyone vaccinated.

        Returns ``(CandidateState, SocialCostBreakdown)``; the state has
        ``threshold=None`` when vaccinating everyone is no dearer than the
        best boundary-threshold state.  A zero refined fraction comes back
        from :class:`CandidateState` as the full state at the previous
        degree (or everyone vaccinated), the one representation of that
        state.  A seeded batch of random non-candidate states, solved once
        per solver, guards the restriction at every cost.
        """
        if not (0.0 < cost < 1.0):
            raise ValueError("vaccination cost must lie in (0, 1)")
        dist = self.params.distribution
        f, psi = self._refine(cost)
        # everyone vaccinated is the bottom candidate; ties keep it
        if psi < cost:
            state = CandidateState(dist, dist.degrees[self._boundary], f)
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
    pne = solve_pne(spec)
    opt_state, opt_cost = SocialOptimumSolver(params).solve(spec.cost)
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
