"""Perception functions: values, inverses, shape verification."""

import numpy as np
import pytest

from vaxgame import (
    PERCEPTION_FIXED_POINT,
    identity,
    prelec,
    verify_inverse_s_shape,
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

    def test_json_round_trip(self):
        from vaxgame import WeightingSpec

        for spec in (identity(), prelec(0.65)):
            assert WeightingSpec.from_json(spec.to_json()) == spec
        with pytest.raises(ValueError):
            WeightingSpec.from_json({"kind": "tversky"})


def spread_points(seed=29):
    """Interior points on both scales, plus points piled against 0 and 1."""
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.uniform(0.0, 1.0, 20_000),
            10.0 ** rng.uniform(-300.0, 0.0, 5_000),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 5_000),
        ]
    )


class TestWeightArray:
    POINTS = spread_points()

    def scalar(self, spec, xs):
        return np.array([weight(spec, float(x)) for x in xs])

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75])
    def test_prelec_within_16_ulps_of_scalar(self, alpha):
        # exp scales a relative error in its argument y = (-ln x)**alpha by
        # |y|, so the bound is 16 ulps while |y| <= 4 and 4|y| ulps beyond
        # (x = 1e-300 at alpha 0.75 has y ~ 135 and differs by up to ~250)
        spec = prelec(alpha)
        got = weight(spec, self.POINTS)
        want = self.scalar(spec, self.POINTS)
        assert isinstance(got, np.ndarray) and got.shape == self.POINTS.shape
        ulps = np.abs(got - want) / np.spacing(want)
        y = (-np.log(self.POINTS)) ** alpha
        excess = ulps / (16.0 * np.maximum(1.0, y / 4.0))
        assert excess.max() <= 1.0, float(self.POINTS[np.argmax(excess)])

    @pytest.mark.parametrize("spec", [identity(), prelec(1.0)], ids=["identity", "alpha-1"])
    def test_identity_exact(self, spec):
        got = weight(spec, self.POINTS)
        assert np.array_equal(got, self.POINTS)
        assert got is not self.POINTS

    @pytest.mark.parametrize("spec", [identity(), prelec(0.05), prelec(0.5)], ids=["identity", "0.05", "0.5"])
    def test_endpoints_exact(self, spec):
        got = weight(spec, np.array([0.0, 1.0, 0.5, 1.0, 0.0]))
        assert got[0] == 0.0 and got[1] == 1.0 and got[3] == 1.0 and got[4] == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.1])
    @pytest.mark.parametrize("spec", [identity(), prelec(0.5)], ids=["identity", "prelec"])
    def test_domain_errors(self, spec, bad):
        with pytest.raises(ValueError):
            weight(spec, np.array([0.2, bad, 0.7]))

    def test_input_not_modified(self):
        xs = np.array([0.0, 0.3, 1.0])
        weight(prelec(0.5), xs)
        assert xs.tolist() == [0.0, 0.3, 1.0]


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
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9])
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
        # alpha this close to one diverges too slowly at the endpoints for
        # the qualitative check; the report must record that, not raise
        report = verify_inverse_s_shape(prelec(1.0 - 1e-9))
        assert not report.skipped
        assert not report.passed
        failed = [name for name, (ok, _) in report.checks.items() if not ok]
        assert failed
