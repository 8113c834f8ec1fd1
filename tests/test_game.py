"""Vaccination game: costs, candidate ordering, equilibrium solver."""

import math

import numpy as np
import pytest

from vaxgame import (
    CandidateState,
    EpidemicParams,
    GameSpec,
    SocialState,
    ThresholdLadder,
    compare_candidates,
    compare_true_vs_weighted,
    endemic_state,
    explicit,
    identity,
    power_law,
    prelec,
    solve_pne,
    unprotected_cost,
    verify_pne,
    weight,
)

from conftest import brute_force_pne, random_distribution, random_params, states_within_one_step

PRELEC_05_AT_05 = 0.4349367715757099  # exp(-(ln 2)^0.5), 40-digit reference


def k4_spec(cost=1.0 / 3.0, weighting=None):
    params = EpidemicParams(2.0, explicit({4: 1.0}))
    return GameSpec(params, weighting or identity(), cost)


class TestGameSpec:
    def test_cost_domain(self):
        params = EpidemicParams(2.0, explicit({4: 1.0}))
        for bad in (0.0, 1.0, 1.3, -0.1):
            with pytest.raises(ValueError):
                GameSpec(params, identity(), bad)

    def test_requires_low_curing_rate(self):
        # <d^2>/<d> = 4, delta must stay below it
        params = EpidemicParams(4.0, explicit({4: 1.0}))
        with pytest.raises(ValueError):
            GameSpec(params, identity(), 0.5)


class TestCandidateOrder:
    def setup_method(self):
        self.dist = power_law(1, 10, 2.0)

    def test_lower_threshold_first(self):
        a = CandidateState(self.dist, 3)
        b = CandidateState(self.dist, 5, 0.1 * self.dist.mass_of(5))
        assert compare_candidates(a, b) == -1
        assert compare_candidates(b, a) == 1

    def test_equal_states(self):
        a = CandidateState(self.dist, 4, 0.2 * self.dist.mass_of(4))
        b = CandidateState(self.dist, 4, 0.2 * self.dist.mass_of(4))
        assert compare_candidates(a, b) == 0

    def test_fraction_breaks_ties(self):
        a = CandidateState(self.dist, 4, 0.2 * self.dist.mass_of(4))
        b = CandidateState(self.dist, 4, 0.5 * self.dist.mass_of(4))
        assert compare_candidates(a, b) == -1

    def test_all_vaccinated_is_bottom(self):
        bottom = CandidateState(self.dist, None)
        assert compare_candidates(bottom, CandidateState(self.dist, 1, 1e-6)) == -1
        assert compare_candidates(bottom, CandidateState(self.dist, None)) == 0

    def test_different_distributions_rejected(self):
        other = power_law(1, 9, 2.0)
        with pytest.raises(ValueError):
            compare_candidates(CandidateState(self.dist, 3), CandidateState(other, 3))

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            CandidateState(self.dist, 4, 0.0)
        with pytest.raises(ValueError):
            CandidateState(self.dist, 4, 2 * self.dist.mass_of(4))


class TestUnprotectedCost:
    def test_disease_free_is_free(self):
        spec = k4_spec()
        state = SocialState.all_vaccinated(spec.distribution)
        assert unprotected_cost(spec, state, 4) == 0.0

    def test_single_degree_identity(self):
        spec = k4_spec()
        state = SocialState.all_unprotected(spec.distribution)
        assert unprotected_cost(spec, state, 4) == pytest.approx(0.5, abs=1e-12)

    def test_single_degree_prelec(self):
        spec = k4_spec(weighting=prelec(0.5))
        state = SocialState.all_unprotected(spec.distribution)
        assert unprotected_cost(spec, state, 4) == pytest.approx(PRELEC_05_AT_05, abs=1e-12)


class TestSolvePne:
    def test_single_degree_interior_closed_form(self):
        res = solve_pne(k4_spec(), audit=True)
        assert res.state.threshold == 4
        assert res.state.fraction == pytest.approx(0.75, abs=1e-9)
        assert res.v == pytest.approx(0.25, abs=1e-9)
        assert res.interior
        assert res.audit_fired_cases == 1
        # indifference at the threshold
        assert res.perceived_cost_at_threshold == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_single_degree_boundary_nobody_vaccinates(self):
        # perceived cost at the fully unprotected state is w(0.5) = 0.5;
        # any cost at or above it keeps everyone unprotected
        for c in (0.5, 0.6, 0.9):
            res = solve_pne(k4_spec(cost=c), audit=True)
            assert res.state.threshold == 4
            assert res.state.fraction == 1.0
            assert res.v == pytest.approx(0.5, abs=1e-12)
            assert not res.interior
            assert res.audit_fired_cases == 1
            assert math.isinf(res.window[1])

    def test_threshold_structure_of_output(self):
        dist = power_law(1, 40, 2.5)
        spec = GameSpec(EpidemicParams(1.5, dist), prelec(0.6), 0.35)
        res = solve_pne(spec)
        x = res.state.social_state().unprotected
        j = dist.index_of(res.state.threshold)
        np.testing.assert_array_equal(x[:j], dist.mass[:j])
        assert np.all(x[j + 1 :] == 0.0)

    def test_window_certificate(self):
        dist = power_law(1, 40, 2.5)
        spec = GameSpec(EpidemicParams(1.5, dist), identity(), 0.42)
        res = solve_pne(spec)
        lo, hi = res.window
        assert lo <= res.K + 1e-9
        assert res.K <= hi + 1e-9

    def test_equilibrium_is_endemic_under_low_curing(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            dist = random_distribution(rng)
            params = random_params(rng, dist)
            spec = GameSpec(params, identity(), float(rng.uniform(0.05, 0.95)))
            res = solve_pne(spec)
            assert res.reproduction > 1.0

    def test_interior_indifference(self):
        rng = np.random.default_rng(29)
        seen_interior = 0
        while seen_interior < 8:
            dist = random_distribution(rng)
            params = random_params(rng, dist)
            spec = GameSpec(params, identity(), float(rng.uniform(0.05, 0.9)))
            res = solve_pne(spec)
            if not res.interior:
                continue
            assert res.state.fraction < dist.mass_of(res.state.threshold)
            assert res.perceived_cost_at_threshold == pytest.approx(spec.cost, abs=1e-8)
            seen_interior += 1

    def test_monotone_in_cost(self):
        dist = power_law(1, 30, 2.5)
        params = EpidemicParams(1.2, dist)
        ladder = ThresholdLadder(params)
        prev = None
        for c in np.linspace(0.05, 0.95, 19):
            res = solve_pne(GameSpec(params, identity(), float(c)), ladder=ladder)
            if prev is not None:
                assert compare_candidates(prev, res.state) <= 0
            prev = res.state

    def test_tiny_cost_sharp_weighting_interior(self):
        # sharp overweighting maps small costs to indifference levels near
        # zero; the equilibrium must sit just above criticality, never on a
        # disease-free boundary state
        dist = power_law(1, 100, 3.0)
        params = EpidemicParams(2.0, dist)
        spec = GameSpec(params, prelec(0.5), 0.01)
        res = solve_pne(spec, audit=True)
        assert res.interior
        assert res.audit_fired_cases == 1
        assert res.reproduction > 1.0
        assert verify_pne(spec, res, tol=1e-8).passed

    def test_near_critical_equilibrium_flagged(self):
        dist = power_law(1, 100, 3.0)
        params = EpidemicParams(2.0, dist)
        res = solve_pne(GameSpec(params, identity(), 1e-13))
        assert res.interior
        assert res.degenerate_near_critical
        assert 0.0 < res.state.fraction < dist.mass_of(res.state.threshold)

    def test_matches_brute_force_small_sets(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            dist = random_distribution(rng, max_degrees=3, degree_pool=12)
            params = random_params(rng, dist)
            w = identity() if rng.random() < 0.5 else prelec(float(rng.uniform(0.3, 0.95)))
            spec = GameSpec(params, w, float(rng.uniform(0.05, 0.9)))
            res = solve_pne(spec, audit=True)
            assert res.audit_fired_cases == 1
            t, f, _ = brute_force_pne(spec, grid=1000)
            assert states_within_one_step(
                dist, (t, f), (res.state.threshold, res.state.fraction)
            ), (t, f, res.state)


class TestVerifyPne:
    def test_solver_output_certifies(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            dist = random_distribution(rng)
            params = random_params(rng, dist)
            spec = GameSpec(params, prelec(0.7), float(rng.uniform(0.05, 0.95)))
            cert = verify_pne(spec, solve_pne(spec))
            assert cert.max_violation <= 1e-8

    def test_perturbed_state_violates_somewhere(self):
        dist = power_law(1, 20, 2.5)
        params = EpidemicParams(1.5, dist)
        found = False
        for c in np.linspace(0.1, 0.9, 9):
            spec = GameSpec(params, identity(), float(c))
            res = solve_pne(spec)
            t = res.state.threshold
            bumped = min(res.state.fraction + 0.05, dist.mass_of(t))
            if bumped == res.state.fraction:
                continue
            cert = verify_pne(spec, CandidateState(dist, t, bumped))
            if cert.max_violation > 1e-6:
                found = True
        assert found

    @staticmethod
    def scalar_certificate(spec, social, tol):
        """The per-degree certificate loop that the array form replaced."""
        p = endemic_state(spec.params, social).p
        by_degree, worst = {}, 0.0
        for i, degree in enumerate(spec.distribution.degrees):
            w_p = weight(spec.weighting, float(p[i]))
            x_u = float(social.unprotected[i])
            x_v = float(spec.distribution.mass[i]) - x_u
            viol = 0.0
            if x_u > 0.0:
                viol = max(viol, w_p - spec.cost)
            if x_v > 1e-15:
                viol = max(viol, spec.cost - w_p)
            by_degree[int(degree)] = viol
            worst = max(worst, viol)
        return worst, worst <= tol, by_degree

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            dist = random_distribution(rng, max_degrees=12, degree_pool=60)
            params = random_params(rng, dist)
            w = identity() if rng.random() < 0.25 else prelec(float(rng.uniform(0.05, 1.0)))
            spec = GameSpec(params, w, float(rng.uniform(0.02, 0.98)))
            res = solve_pne(spec)
            t = res.state.threshold
            # vaccinated mass at rounding level: below the 1e-15 floor, so
            # the degree still counts as fully unprotected
            shaved = np.array(res.state.social_state().unprotected)
            shaved[dist.degrees < t] = np.nextafter(dist.mass[dist.degrees < t], 0.0)
            states = [
                res.state.social_state(),
                SocialState(dist, shaved),
                SocialState(dist, rng.uniform(0.0, 1.0, dist.size) * dist.mass),
                CandidateState(dist, t, min(res.state.fraction * 1.1, dist.mass_of(t))).social_state(),
                SocialState.all_vaccinated(dist),
                SocialState.all_unprotected(dist),
            ]
            for social in states:
                cert = verify_pne(spec, social, tol=1e-8)
                worst, passed, by_degree = self.scalar_certificate(spec, social, 1e-8)
                assert cert.passed == passed
                assert cert.max_violation == pytest.approx(worst, abs=1e-15)
                assert list(cert.violations_by_degree) == list(by_degree)
                for degree, viol in by_degree.items():
                    assert cert.violations_by_degree[degree] == pytest.approx(viol, abs=1e-15), degree

    def test_everyone_vaccinated_violates_by_cost(self):
        spec = k4_spec(cost=0.4)
        cert = verify_pne(spec, SocialState.all_vaccinated(spec.distribution))
        assert cert.max_violation == pytest.approx(0.4, abs=1e-15)
        assert not cert.passed


class TestTrueVsWeighted:
    def setup_method(self):
        dist = power_law(1, 100, 3.0)
        self.params = EpidemicParams(2.0, dist)

    def test_fixed_point_cost_gives_equal_equilibria(self):
        c = math.exp(-1.0)
        rep = compare_true_vs_weighted(
            GameSpec(self.params, identity(), c), GameSpec(self.params, prelec(0.5), c)
        )
        assert rep.ordering == 0
        assert rep.expected_ordering_holds
        assert rep.true_result.state.threshold == rep.weighted_result.state.threshold
        assert rep.true_result.state.fraction == pytest.approx(
            rep.weighted_result.state.fraction, abs=1e-9
        )

    def test_high_cost_weighted_vaccinates_less(self):
        rep = compare_true_vs_weighted(
            GameSpec(self.params, identity(), 0.9), GameSpec(self.params, prelec(0.5), 0.9)
        )
        assert rep.ordering <= 0
        assert rep.expected_ordering_holds

    def test_low_cost_weighted_vaccinates_more(self):
        rep = compare_true_vs_weighted(
            GameSpec(self.params, identity(), 0.1), GameSpec(self.params, prelec(0.5), 0.1)
        )
        assert rep.ordering >= 0
        assert rep.expected_ordering_holds

    def test_requires_identity_on_first_spec(self):
        with pytest.raises(ValueError):
            compare_true_vs_weighted(
                GameSpec(self.params, prelec(0.5), 0.5), GameSpec(self.params, prelec(0.5), 0.5)
            )
