"""Mean-field machinery: reproduction, fixed point, dynamics, reduction."""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vaxgame import (
    ConsistencyError,
    ConvergenceError,
    DegreeDistribution,
    EpidemicParams,
    IntegrationError,
    SocialState,
    batch_endemic_v,
    endemic_state,
    explicit,
    integrate_dbmf,
    nimfa_reduction,
    power_law,
    reproduction,
    settle_dbmf,
)
from vaxgame.dbmf import NEAR_CRITICAL_R

from conftest import random_distribution, random_params


def single_degree_params(k=4, delta=2.0):
    return EpidemicParams(delta, explicit({k: 1.0}))


class TestReproduction:
    def test_all_vaccinated_is_zero(self):
        params = single_degree_params()
        assert reproduction(params, SocialState.all_vaccinated(params.distribution)) == 0.0

    def test_all_unprotected_moment_ratio(self):
        dist = power_law(1, 60, 2.5)
        params = EpidemicParams(1.7, dist)
        r = reproduction(params, SocialState.all_unprotected(dist))
        assert r == pytest.approx(dist.second_moment / (1.7 * dist.mean_degree), abs=1e-12)

    def test_single_degree_hand_value(self):
        params = single_degree_params()
        # 16 / (2 * 4) = 2
        assert reproduction(params, SocialState.all_unprotected(params.distribution)) == 2.0

    def test_mismatched_distribution(self):
        params = single_degree_params()
        other = explicit({5: 1.0})
        with pytest.raises(ConsistencyError):
            reproduction(params, SocialState.all_unprotected(other))


class TestEndemicState:
    def test_subcritical_returns_disease_free(self):
        dist = explicit({2: 1.0})
        params = EpidemicParams(5.0, dist)  # R = 4/10 < 1
        es = endemic_state(params, SocialState.all_unprotected(dist))
        assert es.v == 0.0 and np.all(es.p == 0.0) and not es.endemic

    def test_single_degree_closed_form(self):
        params = single_degree_params()
        es = endemic_state(params, SocialState.all_unprotected(params.distribution))
        # 1 = k/(delta + k v) gives v = 1 - delta/k
        assert es.v == pytest.approx(0.5, abs=1e-12)
        assert es.p[0] == pytest.approx(0.5, abs=1e-12)

    def test_single_degree_partial_state(self):
        params = single_degree_params()
        es = endemic_state(params, SocialState(params.distribution, [0.75]))
        assert es.v == pytest.approx(0.25, abs=1e-12)
        assert es.p[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_root_is_bracketed(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            dist = random_distribution(rng)
            params = random_params(rng, dist)
            state = SocialState(dist, rng.uniform(0.3, 1.0, dist.size) * dist.mass)
            if reproduction(params, state) <= 1.05:
                continue
            es = endemic_state(params, state)
            d = dist.degrees.astype(float)
            coeff = d * state.neighbor_weights()

            def g(v):
                return float(np.sum(coeff / (params.delta + d * v)) - 1.0)

            eps = 1e-6
            assert g(max(es.v - eps, 1e-12)) > 0 > g(es.v + eps)
            assert es.residual <= 1e-12

    def test_p_nondecreasing_in_degree(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            dist = random_distribution(rng)
            params = random_params(rng, dist)
            es = endemic_state(params, SocialState.all_unprotected(dist))
            assert np.all(np.diff(es.p) >= -1e-15)

    def test_near_critical_flag(self):
        dist = explicit({2: 1.0})
        # R = 4 x / (2 delta) = 1 + 5e-13 at x = 1
        delta = 2.0 / (1.0 + 0.5 * NEAR_CRITICAL_R)
        params = EpidemicParams(delta, dist)
        es = endemic_state(params, SocialState.all_unprotected(dist))
        assert es.v == 0.0 and es.degenerate

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        dist = random_distribution(rng, max_degrees=5)
        params = random_params(rng, dist)
        states = rng.uniform(0.0, 1.0, size=(30, dist.size)) * dist.mass
        vs = batch_endemic_v(params, states)
        for row, v in zip(states, vs):
            assert v == pytest.approx(endemic_state(params, SocialState(dist, row)).v, abs=1e-10)

    def test_batch_exhaustion_raises_with_best_iterate(self):
        rng = np.random.default_rng(13)
        dist = random_distribution(rng, max_degrees=5)
        params = random_params(rng, dist)
        states = rng.uniform(0.5, 1.0, size=(8, dist.size)) * dist.mass
        with pytest.raises(ConvergenceError) as info:
            batch_endemic_v(params, states, tol=1e-300)
        np.testing.assert_allclose(info.value.best, batch_endemic_v(params, states), atol=1e-12)
        assert 1e-300 < info.value.residual < 1e-12

    def test_batch_rejects_nonpositive_tol(self):
        params = single_degree_params()
        with pytest.raises(ValueError):
            batch_endemic_v(params, params.distribution.mass[None, :], tol=0.0)


class TestMonotonicity:
    def test_candidate_order_orders_v(self):
        # larger candidate states carry strictly larger endemic v once endemic
        rng = np.random.default_rng(31)
        for _ in range(30):
            dist = random_distribution(rng, max_degrees=5, degree_pool=20)
            params = random_params(rng, dist)
            j1, j2 = sorted(rng.integers(0, dist.size, size=2))
            f1 = float(rng.uniform(0.2, 0.9) * dist.mass[j1])
            f2 = float(rng.uniform(0.2, 0.9) * dist.mass[j2])
            if j1 == j2:
                f1, f2 = min(f1, f2), max(f1, f2)
                if f2 - f1 < 1e-3 * dist.mass[j1]:
                    continue
            s1 = SocialState.from_threshold(dist, int(dist.degrees[j1]), f1)
            s2 = SocialState.from_threshold(dist, int(dist.degrees[j2]), f2)
            v1 = endemic_state(params, s1).v
            v2 = endemic_state(params, s2).v
            assert v1 <= v2 + 1e-12
            if v2 > 1e-6:
                assert v1 < v2


class TestDynamics:
    def test_zero_initial_condition_stays_zero(self):
        dist = power_law(1, 15, 2.5)
        params = EpidemicParams(1.0, dist)
        traj = integrate_dbmf(params, SocialState.all_unprotected(dist), 0.0, 5.0)
        assert np.max(np.abs(traj.probabilities)) == 0.0

    def test_subcritical_decay(self):
        dist = explicit({1: 0.6, 3: 0.4})
        params = EpidemicParams(4.0, dist)
        state = SocialState.all_unprotected(dist)
        assert reproduction(params, state) < 1.0
        p = settle_dbmf(params, state, p0=0.9)
        assert np.max(p) < 1e-6

    def test_supercritical_matches_fixed_point(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 5:
            dist = random_distribution(rng, max_degrees=5, degree_pool=15)
            params = random_params(rng, dist)
            state = SocialState(dist, rng.uniform(0.4, 1.0, dist.size) * dist.mass)
            if reproduction(params, state) < 1.2:
                continue
            es = endemic_state(params, state)
            p = settle_dbmf(params, state, p0=0.5)
            v_ode = float(np.dot(state.neighbor_weights(), p))
            assert v_ode == pytest.approx(es.v, abs=1e-6)
            np.testing.assert_allclose(p, es.p, atol=1e-6)
            done += 1

    def test_trajectory_stays_in_unit_interval(self):
        dist = power_law(1, 10, 2.0)
        params = EpidemicParams(0.8, dist)
        traj = integrate_dbmf(params, SocialState.all_unprotected(dist), 1.0, 10.0)
        assert np.all(traj.probabilities >= 0.0) and np.all(traj.probabilities <= 1.0)

    def test_oversized_step_raises(self):
        dist = explicit({20: 1.0})
        params = EpidemicParams(0.5, dist)
        with pytest.raises(IntegrationError):
            integrate_dbmf(params, SocialState.all_unprotected(dist), 0.9, 50.0, dt=1.0)

    def test_input_validation(self):
        params = single_degree_params()
        state = SocialState.all_unprotected(params.distribution)
        with pytest.raises(ValueError):
            integrate_dbmf(params, state, 1.5, 1.0)
        with pytest.raises(ValueError):
            integrate_dbmf(params, state, 0.5, -1.0)
        with pytest.raises(ValueError):
            integrate_dbmf(params, state, 0.5, 1.0, dt=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -0.01},
            {"p0": 1.5},
            {"t_max": 0.0},
            {"t_max": -1.0},
            {"tol": 0.0},
            {"tol": -1e-10},
        ],
    )
    def test_settle_input_validation(self, kwargs):
        params = single_degree_params()
        with pytest.raises(ValueError):
            settle_dbmf(params, SocialState.all_unprotected(params.distribution), **kwargs)

    def test_default_step_matches_fine_step(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            dist = random_distribution(rng, max_degrees=5, degree_pool=20)
            params = random_params(rng, dist, lo=0.2, hi=1.2)
            state = SocialState(dist, rng.uniform(0.2, 1.0, dist.size) * dist.mass)
            if abs(reproduction(params, state) - 1.0) < 0.1:
                continue
            fine = settle_dbmf(params, state, p0=0.5, dt=0.01 / params.delta)
            np.testing.assert_allclose(settle_dbmf(params, state, p0=0.5), fine, rtol=0, atol=1e-9)

    def test_stiff_power_law_settles(self):
        # d_max * v is large here; a 0.01/delta step overflows
        dist = power_law(1, 300, 3.0)
        params = EpidemicParams(0.5, dist)
        state = SocialState.all_unprotected(dist)
        p = settle_dbmf(params, state)
        np.testing.assert_allclose(p, endemic_state(params, state).p, rtol=0, atol=1e-6)

    def test_unstable_step_fails_fast(self):
        # the same instance with the unscaled 0.01/delta step is unstable:
        # the iterate swings to about 1e4, which the clip would hide while
        # the loop ran all of t_max
        dist = power_law(1, 300, 3.0)
        params = EpidemicParams(0.5, dist)
        state = SocialState.all_unprotected(dist)
        start = time.perf_counter()
        with pytest.raises(IntegrationError):
            settle_dbmf(params, state, dt=0.01 / params.delta)
        assert time.perf_counter() - start < 10.0

    def test_nan_iterate_raises(self):
        # NaN compares false both ways, so a range test written as two
        # "outside" checks would let it through
        params = single_degree_params()
        state = SocialState.all_unprotected(params.distribution)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError):
                integrate_dbmf(params, state, 0.9, 1.0, dt=1e200)
            with pytest.raises(IntegrationError):
                settle_dbmf(params, state, p0=0.9, dt=1e200)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.lists(st.integers(1, 30), min_size=2, max_size=6, unique=True),
        data=st.data(),
        delta_ratio=st.floats(0.2, 1.5),
    )
    def test_settle_matches_fixed_point_property(self, degrees, data, delta_ratio):
        n = len(degrees)
        mass = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        dist = DegreeDistribution(sorted(degrees), mass / mass.sum())
        share = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        params = EpidemicParams(delta_ratio * dist.second_moment / dist.mean_degree, dist)
        state = SocialState(dist, share * dist.mass)
        r = reproduction(params, state)
        # the approach to the fixed point slows to a crawl at R = 1
        assume(abs(r - 1.0) >= 0.1)
        p = settle_dbmf(params, state, p0=0.5)
        np.testing.assert_allclose(p, endemic_state(params, state).p, rtol=0, atol=1e-6)


class TestNimfaReduction:
    def test_all_vaccinated_zero_matrix(self):
        params = single_degree_params()
        red = nimfa_reduction(params, SocialState.all_vaccinated(params.distribution))
        assert np.all(red.adjacency == 0.0)
        assert red.spectral_radius == 0.0 == red.reproduction

    def test_single_degree_hand_value(self):
        params = single_degree_params()
        red = nimfa_reduction(params, SocialState.all_unprotected(params.distribution))
        # q_hat_4 = 4*1/4 = 1, adjacency [[4]], radius 4/2 = 2
        assert red.adjacency.shape == (1, 1) and red.adjacency[0, 0] == 4.0
        assert red.spectral_radius == pytest.approx(2.0, abs=1e-12)

    def test_sweep_instance_radius(self):
        dist = power_law(1, 100, 3.0)
        params = EpidemicParams(2.0, dist)
        red = nimfa_reduction(params, SocialState.all_unprotected(dist))
        expected = dist.second_moment / (2.0 * dist.mean_degree)
        assert red.spectral_radius == pytest.approx(expected, abs=1e-10)

    def test_radius_equals_reproduction_on_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            dist = random_distribution(rng)
            params = random_params(rng, dist)
            state = SocialState(dist, rng.uniform(0.0, 1.0, dist.size) * dist.mass)
            red = nimfa_reduction(params, state)
            assert red.spectral_radius == pytest.approx(red.reproduction, abs=1e-10)
