"""Analytic power-law bounds against numerically computed endemic states."""

import math

import numpy as np
import pytest

from vaxgame import (
    EpidemicParams,
    GameSpec,
    PowerLawBoundContext,
    ThresholdLadder,
    endemic_odds,
    explicit,
    identity,
    odds_lower_bound,
    odds_upper_bound,
    power_law,
    prelec,
    ratio_sandwich,
    solve_pne,
    threshold_upper_bound,
)


def sweep_ctx():
    return PowerLawBoundContext.create(power_law(1, 100, 3.0), 2.0)


class TestContext:
    def test_b1_exceeds_one(self):
        for dist, delta in (
            (power_law(1, 100, 3.0), 2.0),
            (power_law(2, 200, 2.0), 1.0),
            (power_law(3, 150, 2.5), 0.5),
        ):
            assert PowerLawBoundContext.create(dist, delta).b1 > 1.0

    def test_b1_uses_finite_sum_normalization(self):
        # for exponent 3 the exponent in B1 reduces to delta * sum d^-2
        dist = power_law(1, 100, 3.0)
        ctx = PowerLawBoundContext.create(dist, 2.0)
        s2 = float(np.sum(dist.degrees.astype(float) ** -2.0))
        assert ctx.b1 == pytest.approx(math.exp(2.0 * s2), rel=1e-12)

    def test_requires_power_law_provenance(self):
        with pytest.raises(ValueError):
            PowerLawBoundContext.create(explicit({2: 0.5, 3: 0.5}), 1.0)


class TestOddsLowerBound:
    def test_sweep_instance_midrange(self):
        ctx = sweep_ctx()
        assert odds_lower_bound(ctx, 50) <= endemic_odds(ctx, 50)

    def test_holds_at_every_valid_threshold(self):
        ctx = sweep_ctx()
        for t in range(16, 101, 7):
            assert odds_lower_bound(ctx, t) <= endemic_odds(ctx, t)

    def test_vacuous_below_d0_b1(self):
        ctx = sweep_ctx()
        # t below d0*B1 ~ 26.3 makes the bound nonpositive yet still valid
        t = 20
        lo = odds_lower_bound(ctx, t)
        assert lo <= 0.0
        assert lo <= endemic_odds(ctx, t)

    def test_exponent_two_instance(self):
        ctx = PowerLawBoundContext.create(power_law(2, 200, 2.0), 1.0)
        assert odds_lower_bound(ctx, 100) <= endemic_odds(ctx, 100)

    def test_domain_errors(self):
        ctx = sweep_ctx()
        with pytest.raises(ValueError):
            odds_lower_bound(ctx, 1)  # zero denominator at the minimum degree
        with pytest.raises(ValueError):
            odds_lower_bound(ctx, 5)  # subcritical threshold
        bad = PowerLawBoundContext.create(power_law(1, 50, 3.5), 1.0)
        with pytest.raises(ValueError):
            odds_lower_bound(bad, 30)


class TestOddsUpperBound:
    def test_exponent_three_d0_two(self):
        ctx = PowerLawBoundContext.create(power_law(2, 100, 3.0), 2.0)
        for t in (20, 40, 60, 100):
            ratio = endemic_odds(ctx, t)
            assert ratio <= odds_upper_bound(ctx, t)
            assert odds_lower_bound(ctx, t) <= ratio

    def test_exponent_three_d0_three(self):
        ctx = PowerLawBoundContext.create(power_law(3, 150, 3.0), 1.5)
        assert endemic_odds(ctx, 80) <= odds_upper_bound(ctx, 80)

    def test_bound_stays_below_one(self):
        # (t - (d0-1) B1)/(t - d0 + 1) < 1 always since B1 > 1; the odds
        # ratio below one keeps the comparison meaningful at every t
        ctx = PowerLawBoundContext.create(power_law(2, 100, 3.0), 2.0)
        assert odds_upper_bound(ctx, 100) < 1.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            odds_upper_bound(sweep_ctx(), 60)  # minimum degree 1
        ctx = PowerLawBoundContext.create(power_law(2, 100, 2.5), 1.0)
        with pytest.raises(ValueError):
            odds_upper_bound(ctx, 60)  # exponent not 3


class TestThresholdUpperBound:
    def test_small_cost_limit(self):
        ctx = sweep_ctx()
        params = EpidemicParams(2.0, ctx.distribution)
        bound = threshold_upper_bound(ctx, identity(), 0.01)
        assert bound < 30  # 1 + d0 + d0 (B1 - 1)/(1 - c) stays small
        res = solve_pne(GameSpec(params, identity(), 0.01))
        assert res.state.threshold <= bound

    def test_capped_at_maximum_degree(self):
        ctx = sweep_ctx()
        assert threshold_upper_bound(ctx, identity(), 0.95) == 100.0

    def test_inverse_weight_rounding_to_one_caps_at_maximum_degree(self):
        ctx = PowerLawBoundContext.create(power_law(2, 500, 3.0), 2.0)
        # w^{-1}(0.9) rounds to 1.0 under prelec 0.05
        assert threshold_upper_bound(ctx, prelec(0.05), 0.9) == 500.0

    def test_full_cost_grid_identity_and_prelec(self):
        ctx = sweep_ctx()
        params = EpidemicParams(2.0, ctx.distribution)
        ladder = ThresholdLadder(params)
        for w in (identity(), prelec(0.5), prelec(0.75)):
            for c in np.linspace(0.05, 0.95, 19):
                bound = threshold_upper_bound(ctx, w, float(c))
                res = solve_pne(GameSpec(params, w, float(c)), ladder=ladder)
                assert res.state.threshold <= bound + 1e-9


class TestRatioSandwich:
    def setup_method(self):
        self.ctx = PowerLawBoundContext.create(power_law(2, 500, 3.0), 2.0)

    def test_informative_points_within_sandwich(self):
        rep = ratio_sandwich(self.ctx, 0.75, [0.8, 0.9, 0.95])
        assert all(not p.uninformative for p in rep.points)
        assert rep.all_informative_within
        ratios = [p.ratio for p in rep.points]
        assert ratios == sorted(ratios)

    def test_clipping_flagged_uninformative(self):
        rep = ratio_sandwich(self.ctx, 0.5, [0.8, 0.9, 0.95])
        assert [p.uninformative for p in rep.points] == [False, False, True]
        assert rep.all_informative_within

    def test_fixed_point_cost_gives_unit_ratio(self):
        rep = ratio_sandwich(self.ctx, 0.5, [math.exp(-1.0)])
        p = rep.points[0]
        assert p.d_true == p.d_weighted
        assert p.ratio == 1.0
        assert p.theta_proxy == pytest.approx(1.0, abs=1e-12)

    def test_ratio_grows_toward_high_cost(self):
        rep = ratio_sandwich(self.ctx, 0.75, [0.5, 0.7, 0.9])
        ratios = [p.ratio for p in rep.points]
        assert ratios[0] <= ratios[1] <= ratios[2]

    def test_requires_exponent_three_and_d0(self):
        with pytest.raises(ValueError):
            ratio_sandwich(sweep_ctx(), 0.5, [0.5])
        ctx = PowerLawBoundContext.create(power_law(2, 100, 2.0), 1.0)
        with pytest.raises(ValueError):
            ratio_sandwich(ctx, 0.5, [0.5])
