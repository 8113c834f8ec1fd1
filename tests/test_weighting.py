"""Perception functions: values, inverses, shape verification."""

import numpy as np
import pytest

from vaxgame import (
    PERCEPTION_FIXED_POINT,
    EpidemicParams,
    GameSpec,
    SocialOptimumSolver,
    identity,
    power_law,
    prelec,
    solve_pne,
    unprotected_cost,
    verify_inverse_s_shape,
    verify_pne,
    weight,
    weight_derivative,
    weight_inverse,
)

# frozen with 40-digit arithmetic
PRELEC_05_AT_09 = 0.7228215934590387  # exp(-(-ln 0.9)^0.5)
PRELEC_05_INV_05 = 0.6185031378015760  # exp(-(ln 2)^2)
PRELEC_05_AT_05 = 0.4349367715757099  # exp(-(ln 2)^0.5)


class TestWeight:
    def test_identity_passthrough(self):
        assert weight(identity(), 0.37) == 0.37
        assert weight_inverse(identity(), 0.37) == 0.37

    def test_fixed_point_every_alpha(self):
        for a in (0.1, 0.3, 0.5, 0.75, 0.9, 0.99):
            assert weight(prelec(a), PERCEPTION_FIXED_POINT) == pytest.approx(
                PERCEPTION_FIXED_POINT, abs=1e-15
            )
            assert weight_inverse(prelec(a), PERCEPTION_FIXED_POINT) == pytest.approx(
                PERCEPTION_FIXED_POINT, abs=1e-15
            )

    def test_reference_values(self):
        assert weight(prelec(0.5), 0.9) == pytest.approx(PRELEC_05_AT_09, abs=1e-15)
        assert weight_inverse(prelec(0.5), 0.5) == pytest.approx(PRELEC_05_INV_05, abs=1e-15)
        assert weight(prelec(0.5), 0.5) == pytest.approx(PRELEC_05_AT_05, abs=1e-15)

    def test_endpoints(self):
        for spec in (identity(), prelec(0.5)):
            assert weight(spec, 0.0) == 0.0
            assert weight(spec, 1.0) == 1.0
            assert weight_inverse(spec, 0.0) == 0.0
            assert weight_inverse(spec, 1.0) == 1.0

    def test_inverse_past_the_float_range_rounds_to_zero(self):
        # (-ln 0.1)**1000 is about 1e362, so w^-1(0.1) = exp(-1e362): the
        # exponent overflows, and 0.0 is the correctly rounded inverse
        spec = prelec(0.001)
        assert weight_inverse(spec, 0.1) == 0.0
        inverse = [weight_inverse(spec, y) for y in np.linspace(0.001, 0.999, 999)]
        assert np.all(np.diff(inverse) >= 0.0)
        assert inverse[-1] > 0.0

    def test_alpha_one_is_identity(self):
        assert prelec(1.0).is_identity
        assert weight(prelec(1.0), 0.123456) == 0.123456

    def test_domain_errors(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                weight(prelec(0.5), bad)
            with pytest.raises(ValueError):
                weight_inverse(identity(), bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            prelec(0.0)
        with pytest.raises(ValueError):
            prelec(1.5)


class TestScalarOnly:
    """w is one scalar ``math`` function; no package path weighs an array."""

    def test_an_array_is_no_float(self):
        with pytest.raises(TypeError):
            weight(prelec(0.5), np.array([0.2, 0.3]))

    @pytest.mark.parametrize("alpha", [None, 0.05, 0.25, 0.5, 0.75])
    def test_game_and_planner_run_without_numpy_exp_and_log(self, alpha, monkeypatch):
        # the power law is built before exp and log are patched
        params = EpidemicParams(2.0, power_law(1, 100, 3.0))
        solver = SocialOptimumSolver(params)
        spec = identity() if alpha is None else prelec(alpha)

        def refuse(*args, **kwargs):
            raise RuntimeError("numpy exp or log called")

        monkeypatch.setattr(np, "exp", refuse)
        monkeypatch.setattr(np, "log", refuse)
        for c in (0.1, 0.5, 0.9):
            game = GameSpec(params, spec, c)
            res = solve_pne(game)
            verify_pne(game, res.state)
            assert 0.0 <= unprotected_cost(game, res.state, res.state.threshold) <= 1.0
            solver.solve(c)


class TestRoundTrip:
    # float64 cannot carry the inverse through probabilities arbitrarily
    # close to 0 or 1 for small alpha: exp(-(-ln y)^(1/alpha)) underflows
    # below y ~ exp(-745^alpha) and the representation of x near 1 loses
    # the bits that the forward map needs.  The grid below stays inside
    # the representable window for every alpha tested.
    GRID = np.linspace(1e-3, 0.98, 10_000)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9])
    def test_round_trip_1e12(self, alpha):
        spec = prelec(alpha)
        err = max(abs(weight(spec, weight_inverse(spec, y)) - y) for y in self.GRID)
        assert err <= 1e-12

    @pytest.mark.parametrize("alpha", [0.75, 0.9])
    def test_round_trip_wide_grid(self, alpha):
        spec = prelec(alpha)
        wide = np.linspace(1e-9, 1 - 1e-9, 10_000)
        err = max(abs(weight(spec, weight_inverse(spec, y)) - y) for y in wide)
        assert err <= 1e-12

    def test_inverse_of_forward(self):
        spec = prelec(0.6)
        for x in np.linspace(0.01, 0.99, 500):
            assert weight_inverse(spec, weight(spec, x)) == pytest.approx(x, abs=1e-12)


class TestShape:
    def test_monotone_on_random_pairs(self):
        rng = np.random.default_rng(5)
        spec = prelec(0.4)
        for _ in range(300):
            a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
            if a < b:
                assert weight(spec, a) < weight(spec, b)

    def test_over_and_underweighting(self):
        spec = prelec(0.5)
        for x in (0.01, 0.1, 0.3):
            assert weight(spec, x) > x
        for x in (0.4, 0.7, 0.99):
            assert weight(spec, x) < x

    def test_derivative_at_fixed_point_is_alpha(self):
        for a in (0.3, 0.8):
            assert weight_derivative(prelec(a), PERCEPTION_FIXED_POINT) == pytest.approx(
                a, rel=1e-10
            )


class TestShapeVerification:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9, 0.92, 0.95, 0.99])
    def test_prelec_passes(self, alpha):
        report = verify_inverse_s_shape(prelec(alpha))
        assert not report.skipped
        failed = {k: v for k, v in report.checks.items() if not v[0]}
        assert report.passed, failed

    def test_identity_skipped(self):
        report = verify_inverse_s_shape(identity())
        assert report.skipped and report.passed

    def test_alpha_one_skipped(self):
        assert verify_inverse_s_shape(prelec(1.0)).skipped

    def test_report_carries_failures(self):
        # alpha this close to one bends so little that the second difference
        # drowns in the dead band, so the grid sees no single concave-to-convex
        # switch; the report must record that, not raise
        report = verify_inverse_s_shape(prelec(1.0 - 1e-9))
        assert not report.skipped
        assert not report.passed
        failed = [name for name, (ok, _) in report.checks.items() if not ok]
        assert "single_inflection" in failed
