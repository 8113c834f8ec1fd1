"""Degree distribution construction, neighbor probabilities, invariants."""

import numpy as np
import pytest

from vaxgame import DegreeDistribution, explicit, power_law
from vaxgame.degree import MIN_MASS

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
        # an infinite exponent raised "math domain error" from the last-mass bound
        with pytest.raises(ValueError, match="power-law exponent must be positive and finite"):
            power_law(1, 10, float("inf"))

    def test_rejects_exponent_starving_the_tail(self):
        # steep exponents push tail masses below representable support;
        # such entries are rejected rather than silently dropped
        with pytest.raises(ValueError):
            power_law(1, 50, 20.0)

    def test_rejects_an_oversized_range_before_allocating_it(self):
        # 10^15 degrees would take PiB of arrays; the bound on the last mass refuses it first
        with pytest.raises(ValueError, match=f"every mass entry must be at least {MIN_MASS}"):
            power_law(1, 10**15, 3.0)

    @pytest.mark.parametrize("d_min, d_max", [(10**15, 10**15), (10**17, 10**17 + 3)])
    def test_a_range_of_huge_degrees_is_built(self, d_min, d_max):
        # ln(d_max + 1) - ln(d_min) rounded to 0 here, and the last-mass bound
        # raised "math domain error" though explicit() built the same degrees
        dist = power_law(d_min, d_max, 3.0)
        assert dist.degrees.tolist() == list(range(d_min, d_max + 1))
        assert dist.mass == pytest.approx(np.full(dist.size, 1.0 / dist.size), rel=1e-12)
        if d_min == d_max:
            assert dist.same_support(explicit({d_min: 1.0}))

    def test_a_degree_past_int64_overflows(self):
        # the bound passes it, and np.arange refuses it; the scenario reader
        # turns this into a ScenarioError
        with pytest.raises(OverflowError):
            power_law(2**63, 2**63, 3.0)

    @pytest.mark.parametrize(
        "beta, d_min, largest",
        [
            (2.5, 1, 889_130),
            (2.5, 2, 1_536_916),
            (3.0, 1, 94_049),
            (3.0, 2, 170_415),
            (3.5, 1, 18_659),
            (3.5, 2, 34_836),
        ],
    )
    def test_the_largest_accepted_range_is_unchanged(self, beta, d_min, largest):
        # the early bound is loose, so the mass check itself still draws the line
        assert power_law(d_min, largest, beta).mass[-1] >= MIN_MASS
        with pytest.raises(ValueError, match=f"every mass entry must be at least {MIN_MASS}"):
            power_law(d_min, largest + 1, beta)


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
