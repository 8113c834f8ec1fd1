"""Degree distribution construction, neighbor probabilities, invariants."""

import numpy as np
import pytest

from vaxgame import DegreeDistribution, explicit, power_law

from conftest import random_distribution

# high-precision reference for the truncated power-law instance used in
# the sweep experiments (exponent 3, degrees 1..100), 40-digit arithmetic
KAPPA_1_100_B3 = 0.8319416331806166
MASS_ABOVE_10 = 0.003723284052184863
MEAN_1_100_B3 = 1.3602111761438341


class TestPowerLaw:
    def test_single_degree_normalizes_to_one(self):
        dist = power_law(1, 1, 3.0)
        assert dist.mass_of(1) == 1.0
        assert dist.normalization == 1.0

    def test_two_degree_hand_value(self):
        # kappa = (1 + 2^-3)^-1 = 8/9
        dist = power_law(1, 2, 3.0)
        assert dist.normalization == pytest.approx(8.0 / 9.0, abs=1e-15)
        assert dist.mass_of(1) == pytest.approx(8.0 / 9.0, abs=1e-15)
        assert dist.mass_of(2) == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_sweep_instance_tail_mass(self):
        dist = power_law(1, 100, 3.0)
        assert dist.normalization == pytest.approx(KAPPA_1_100_B3, abs=1e-12)
        assert dist.mean_degree == pytest.approx(MEAN_1_100_B3, abs=1e-12)
        tail = sum(dist.mass_of(d) for d in range(11, 101))
        assert tail == pytest.approx(MASS_ABOVE_10, abs=1e-12)
        # reported as roughly 0.003 at one significant digit
        assert abs(tail - 0.003) < 1e-3

    def test_mass_strictly_decreasing(self):
        dist = power_law(2, 60, 2.2)
        assert np.all(np.diff(dist.mass) < 0)

    def test_normalization_identity(self):
        for beta in (2.0, 2.5, 3.0, 3.5):
            dist = power_law(1, 40, beta)
            total = dist.normalization * np.sum(dist.degrees.astype(float) ** -beta)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            power_law(5, 3, 3.0)
        with pytest.raises(ValueError):
            power_law(0, 10, 3.0)
        with pytest.raises(ValueError):
            power_law(1, 10, 0.0)

    def test_rejects_exponent_starving_the_tail(self):
        # steep exponents push tail masses below representable support;
        # such entries are rejected rather than silently dropped
        with pytest.raises(ValueError):
            power_law(1, 50, 20.0)


class TestNeighborProb:
    def test_single_degree(self):
        assert explicit({7: 1.0}).neighbor_prob(7) == 1.0

    def test_two_degree_hand_value(self):
        # <d> = 8/9 + 2/9 = 10/9, q_2 = 2*(1/9)/(10/9) = 0.2
        dist = power_law(1, 2, 3.0)
        assert dist.neighbor_prob(2) == pytest.approx(0.2, abs=1e-15)

    def test_uniform_three_degrees(self):
        dist = explicit({1: 1 / 3, 2: 1 / 3, 3: 1 / 3})
        assert dist.neighbor_prob(3) == pytest.approx(0.5, abs=1e-14)

    def test_unknown_degree(self):
        with pytest.raises(KeyError):
            power_law(1, 5, 3.0).neighbor_prob(6)

    def test_neighbor_probs_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            dist = random_distribution(rng)
            assert dist.neighbor_probs().sum() == pytest.approx(1.0, abs=1e-12)


class TestIndexOf:
    def test_gapped_set_round_trips(self):
        dist = explicit({2: 0.4, 3: 0.1, 10: 0.3, 37: 0.2})
        for i, d in enumerate(dist.degrees):
            assert dist.index_of(d) == dist.index_of(int(d)) == i

    @pytest.mark.parametrize("degree", [1, 4, 9, 36, 38, 10**6])
    def test_absent_degree_raises_key_error(self, degree):
        # below d_min, in a gap, above d_max: above, the insertion point is
        # the size, one past the last index
        dist = explicit({2: 0.4, 3: 0.1, 10: 0.3, 37: 0.2})
        with pytest.raises(KeyError):
            dist.index_of(degree)


class TestValidation:
    def test_moments_recomputable(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dist = random_distribution(rng)
            d = dist.degrees.astype(float)
            assert dist.mean_degree == pytest.approx(np.sum(d * dist.mass), abs=1e-12)
            assert dist.second_moment == pytest.approx(np.sum(d * d * dist.mass), abs=1e-12)

    def test_gapped_degree_set_allowed(self):
        dist = explicit({1: 0.5, 10: 0.3, 37: 0.2})
        assert dist.size == 3 and dist.d_max == 37

    def test_rejects_unnormalized_mass(self):
        with pytest.raises(ValueError):
            DegreeDistribution([1, 2], [0.5, 0.6])

    def test_rejects_vanishing_mass(self):
        with pytest.raises(ValueError):
            DegreeDistribution([1, 2], [1.0 - 1e-16, 1e-16])

    def test_rejects_unsorted_degrees(self):
        with pytest.raises(ValueError):
            DegreeDistribution([3, 2], [0.5, 0.5])

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            DegreeDistribution([0, 2], [0.5, 0.5])

    def test_arrays_read_only(self):
        dist = power_law(1, 5, 3.0)
        with pytest.raises(ValueError):
            dist.mass[0] = 0.5


class TestJson:
    def test_powerlaw_round_trip(self):
        dist = power_law(2, 50, 2.5)
        clone = DegreeDistribution.from_json(dist.to_json())
        assert clone.same_support(dist)
        assert clone.normalization == dist.normalization

    def test_explicit_round_trip(self):
        dist = explicit({4: 0.25, 9: 0.75})
        clone = DegreeDistribution.from_json(dist.to_json())
        assert clone.same_support(dist)
        assert clone.normalization is None

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            DegreeDistribution.from_json({"type": "lognormal"})
