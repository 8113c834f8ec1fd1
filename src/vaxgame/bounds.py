"""Analytic bounds for power-law networks.

Integral comparisons of the endemic fixed-point sum yield two-sided
bounds on the infection odds of the threshold degree in full-threshold
states, an upper bound on the equilibrium threshold as a function of the
vaccination cost, and, for exponent three, a two-sided sandwich that pins
the growth rate of the threshold as the cost approaches one.  Everything
is evaluated with the finite-sum normalization constant stored on the
distribution, never an infinite-series approximation.  Full-threshold
states are rungs of the solver's :class:`ThresholdLadder`, one per context.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

# bench/tracing.py patches endemic_state by this name, so it stays
# though this module no longer calls it
from .dbmf import EpidemicParams, endemic_state  # noqa: F401
from .degree import DegreeDistribution
from .game import GameSpec, ThresholdLadder, solve_pne
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


@dataclass(frozen=True)
class PowerLawBoundContext:
    """Power-law instance data shared by the bound evaluators.

    Requires a distribution with stored power-law normalization; ``b1`` is
    exp(delta*<d>/kappa) > 1, the constant appearing in every bound.  Its one
    epidemic ``params`` refuses a curing rate not positive and finite; its one
    ``ladder``, built on first use, holds the rungs every bound reads.
    """

    params: EpidemicParams
    b1: float

    @classmethod
    def create(cls, distribution: DegreeDistribution, delta: float) -> "PowerLawBoundContext":
        if distribution.normalization is None:
            raise ValueError("bound evaluation needs a power-law-constructed distribution")
        params = EpidemicParams(float(delta), distribution)
        b1 = math.exp(params.delta * distribution.mean_degree / distribution.normalization)
        return cls(params, b1)

    @functools.cached_property
    def ladder(self) -> ThresholdLadder:
        return ThresholdLadder(self.params)

    @property
    def distribution(self) -> DegreeDistribution:
        return self.params.distribution

    @property
    def delta(self) -> float:
        return self.params.delta

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


def _require_endemic(ctx: PowerLawBoundContext, t: int) -> int:
    """The index of ``t``; KeyError for a ``t`` outside the degrees,
    ValueError unless its rung of ``ctx.ladder`` is endemic (v > 0)."""
    index = ctx.distribution.index_of(t)
    if index < ctx.ladder.first_endemic:
        raise ValueError(f"threshold {t} not large enough for an endemic state")
    return index


def endemic_odds(ctx: PowerLawBoundContext, t: int) -> float:
    """Infection odds t*v/(delta + t*v) of the threshold degree at the full-threshold
    state, v its rung's root in ``ctx.ladder``; the quantity the analytic bounds bracket."""
    tv = float(t) * ctx.ladder.v_at(_require_endemic(ctx, t))
    return tv / (ctx.delta + tv)


def odds_lower_bound(ctx: PowerLawBoundContext, t: int) -> float:
    """Lower bound (t - d0*B1)/(t - d0) on the threshold-degree odds.

    Nonpositive (vacuously true) whenever t <= d0*B1.
    """
    _require_beta_range(ctx)
    d0 = ctx.d0
    if t == d0:
        raise ValueError("lower bound undefined at the minimum degree")
    _require_endemic(ctx, t)
    return (t - d0 * ctx.b1) / (t - d0)


def odds_upper_bound(ctx: PowerLawBoundContext, t: int) -> float:
    """Upper bound (t - (d0-1)*B1)/(t - d0 + 1) on the threshold-degree odds.

    Only valid for exponent 3 with minimum degree above 1; vacuous when it
    reaches 1 or more.
    """
    _require_beta3_d0(ctx)
    _require_endemic(ctx, t)
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


def ratio_sandwich(ctx: PowerLawBoundContext, alpha: float, costs) -> RatioSandwichReport:
    """Equilibrium thresholds against the proof sandwich over a cost grid.

    For exponent-3 networks with minimum degree above 1, both equilibrium
    thresholds must lie in their sandwich, and their ratio tracks
    (1-c)/(1-w^{-1}(c)).  Points where a sandwich or a threshold clips at
    the maximum degree are flagged uninformative rather than failed; so are
    points where w^{-1}(c) rounds to 1, whose weighted bounds are infinite.
    Both games solve on ``ctx.ladder``, so calls on one context share its
    prefix sums and rung roots.
    """
    _require_beta3_d0(ctx)
    w_spec = prelec(alpha)
    id_spec = identity()
    d0 = ctx.d0
    d_max = ctx.distribution.d_max
    span = ctx.b1 - 1.0

    points = []
    for c in costs:
        res_t = solve_pne(GameSpec(ctx.params, id_spec, float(c)), ladder=ctx.ladder)
        res_w = solve_pne(GameSpec(ctx.params, w_spec, float(c)), ladder=ctx.ladder)
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
