"""Analytic bounds for power-law networks.

Integral comparisons of the endemic fixed-point sum yield two-sided
bounds on the infection odds of the threshold degree in full-threshold
states, an upper bound on the equilibrium threshold as a function of the
vaccination cost, and, for exponent three, a two-sided sandwich that pins
the growth rate of the threshold as the cost approaches one.  Everything
is evaluated with the finite-sum normalization constant stored on the
distribution, never an infinite-series approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dbmf import EpidemicParams, endemic_state, reproduction
from .degree import DegreeDistribution
# bench/tracing.py patches bounds.ThresholdLadder, so the import stays
from .game import CandidateState, GameSpec, ThresholdLadder, matching_ladder, solve_pne
from .weighting import WeightingSpec, identity, prelec, weight_inverse

__all__ = [
    "PowerLawBoundContext",
    "RatioSandwichPoint",
    "RatioSandwichReport",
    "odds_lower_bound",
    "odds_upper_bound",
    "endemic_odds",
    "threshold_upper_bound",
    "ratio_sandwich",
]

# Operational reading of "threshold large enough for an endemic state".
VALID_T_MARGIN = 1e-9


@dataclass(frozen=True)
class PowerLawBoundContext:
    """Power-law instance data shared by the bound evaluators.

    Requires a distribution with stored power-law normalization; ``b1`` is
    exp(delta*<d>/kappa) > 1, the constant appearing in every bound.
    """

    distribution: DegreeDistribution
    delta: float
    b1: float

    @classmethod
    def create(cls, distribution: DegreeDistribution, delta: float) -> "PowerLawBoundContext":
        if distribution.normalization is None:
            raise ValueError("bound evaluation needs a power-law-constructed distribution")
        if delta <= 0:
            raise ValueError("curing rate must be positive")
        b1 = math.exp(delta * distribution.mean_degree / distribution.normalization)
        return cls(distribution, float(delta), b1)

    @property
    def params(self) -> EpidemicParams:
        return EpidemicParams(self.delta, self.distribution)

    @property
    def beta(self) -> float:
        return self.distribution.exponent

    @property
    def d0(self) -> int:
        return self.distribution.d_min


def _require_beta_range(ctx: PowerLawBoundContext):
    if not (2.0 - 1e-12 <= ctx.beta <= 3.0 + 1e-12):
        raise ValueError("bound requires a power-law exponent in [2, 3]")


def _require_beta3_d0(ctx: PowerLawBoundContext):
    if abs(ctx.beta - 3.0) > 1e-12:
        raise ValueError("bound requires power-law exponent 3")
    if ctx.d0 <= 1:
        raise ValueError("bound requires minimum degree larger than 1")


def endemic_odds(ctx: PowerLawBoundContext, t: int) -> float:
    """Infection odds t*v/(delta + t*v) of the threshold degree at the
    full-threshold state; the quantity the analytic bounds bracket."""
    state = CandidateState(ctx.distribution, t)
    params = ctx.params
    if reproduction(params, state) <= 1.0 + VALID_T_MARGIN:
        raise ValueError(f"threshold {t} not large enough for an endemic state")
    return float(endemic_state(params, state).p[ctx.distribution.index_of(t)])


def odds_lower_bound(ctx: PowerLawBoundContext, t: int) -> float:
    """Lower bound (t - d0*B1)/(t - d0) on the threshold-degree odds.

    Nonpositive (vacuously true) whenever t <= d0*B1.
    """
    _require_beta_range(ctx)
    ctx.distribution.index_of(t)
    d0 = ctx.d0
    if t == d0:
        raise ValueError("lower bound undefined at the minimum degree")
    endemic_odds(ctx, t)  # validates the endemic precondition
    return (t - d0 * ctx.b1) / (t - d0)


def odds_upper_bound(ctx: PowerLawBoundContext, t: int) -> float:
    """Upper bound (t - (d0-1)*B1)/(t - d0 + 1) on the threshold-degree odds.

    Only valid for exponent 3 with minimum degree above 1; vacuous when it
    reaches 1 or more.
    """
    _require_beta3_d0(ctx)
    ctx.distribution.index_of(t)
    endemic_odds(ctx, t)
    d0 = ctx.d0
    return (t - (d0 - 1) * ctx.b1) / (t - d0 + 1)


def threshold_upper_bound(ctx: PowerLawBoundContext, weighting: WeightingSpec, cost: float) -> float:
    """Cost-dependent cap min(D, 1 + d0 + d0*(B1-1)/(1 - w^{-1}(c))) on the
    equilibrium threshold."""
    _require_beta_range(ctx)
    if not (0.0 < cost < 1.0):
        raise ValueError("vaccination cost must lie in (0, 1)")
    u = weight_inverse(weighting, cost)
    d0 = ctx.d0
    # w^{-1}(c) can round to 1, where the cap is vacuous
    raw = 1.0 + d0 + d0 * (ctx.b1 - 1.0) / (1.0 - u) if u < 1.0 else math.inf
    return min(float(ctx.distribution.d_max), raw)


@dataclass(frozen=True)
class RatioSandwichPoint:
    """Sandwich check at one cost point.

    ``*_lo``/``*_hi`` are the proof's two-sided threshold bounds
    (d0-1)*(B1-1)/(1-q) + d0 - 1 <= d <= d0*(B1-1)/(1-q) + d0 + 1 with
    q = c for true perception and q = w^{-1}(c) for the weighted game.
    ``uninformative`` marks points where a bound interval leaves the
    degree range, so the finite instance cannot separate the claim.
    """

    cost: float
    d_true: int
    d_weighted: int
    true_lo: float
    true_hi: float
    weighted_lo: float
    weighted_hi: float
    true_within: bool
    weighted_within: bool
    ratio: float
    theta_proxy: float
    uninformative: bool


@dataclass(frozen=True)
class RatioSandwichReport:
    ctx: PowerLawBoundContext
    alpha: float
    points: list

    @property
    def all_informative_within(self) -> bool:
        return all(p.true_within and p.weighted_within for p in self.points if not p.uninformative)


def ratio_sandwich(
    ctx: PowerLawBoundContext, alpha: float, costs, ladder: ThresholdLadder | None = None
) -> RatioSandwichReport:
    """Equilibrium thresholds against the proof sandwich over a cost grid.

    For exponent-3 networks with minimum degree above 1, both equilibrium
    thresholds must lie in their sandwich, and their ratio tracks
    (1-c)/(1-w^{-1}(c)).  Points where a sandwich or a threshold clips at
    the maximum degree are flagged uninformative rather than failed; so are
    points where w^{-1}(c) rounds to 1, whose weighted bounds are infinite.
    ``ladder`` shares the full-threshold solves with other calls on the
    same epidemic; ValueError for a ladder built on another one.
    """
    _require_beta3_d0(ctx)
    params = ctx.params
    ladder = matching_ladder(params, ladder)
    w_spec = prelec(alpha)
    id_spec = identity()
    d0 = ctx.d0
    d_max = ctx.distribution.d_max
    span = ctx.b1 - 1.0

    points = []
    for c in costs:
        res_t = solve_pne(GameSpec(params, id_spec, float(c)), ladder=ladder)
        res_w = solve_pne(GameSpec(params, w_spec, float(c)), ladder=ladder)
        d_t = res_t.state.threshold
        d_w = res_w.state.threshold
        u = weight_inverse(w_spec, float(c))
        t_lo = (d0 - 1) * span / (1.0 - c) + d0 - 1
        t_hi = d0 * span / (1.0 - c) + d0 + 1
        if u < 1.0:
            w_lo = (d0 - 1) * span / (1.0 - u) + d0 - 1
            w_hi = d0 * span / (1.0 - u) + d0 + 1
            theta = (1.0 - c) / (1.0 - u)
        else:
            # w^{-1}(c) rounded to 1: the weighted sandwich is unbounded
            w_lo = w_hi = theta = math.inf
        clipped = (
            d_t == d_max or d_w == d_max or t_hi >= d_max or w_hi >= d_max
        )
        points.append(
            RatioSandwichPoint(
                cost=float(c),
                d_true=d_t,
                d_weighted=d_w,
                true_lo=t_lo,
                true_hi=t_hi,
                weighted_lo=w_lo,
                weighted_hi=w_hi,
                true_within=t_lo <= d_t <= t_hi,
                weighted_within=w_lo <= d_w <= w_hi,
                ratio=d_w / d_t,
                theta_proxy=theta,
                uninformative=clipped,
            )
        )
    return RatioSandwichReport(ctx, float(alpha), points)
