"""Social cost, optimal vaccination policy, inefficiency of equilibrium."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxgame import (
    CandidateState,
    DegreeDistribution,
    EpidemicParams,
    GameSpec,
    SocialState,
    ThresholdLadder,
    batch_endemic_v,
    compare_candidates,
    explicit,
    identity,
    inefficiency,
    power_law,
    prelec,
    social_cost,
    solve_pne,
    solve_social_optimum,
    SocialOptimumSolver,
)
from vaxgame.planner import _golden_min

from conftest import eradication_boundary, random_distribution, random_params


def k4_params(delta=2.0):
    return EpidemicParams(delta, explicit({4: 1.0}))


class TestSocialCost:
    def test_everyone_vaccinated_costs_c(self):
        params = k4_params()
        bd = social_cost(params, 0.3, SocialState.all_vaccinated(params.distribution))
        assert bd.total == pytest.approx(0.3, abs=1e-15)
        assert bd.infected_term == 0.0

    def test_single_degree_all_unprotected(self):
        params = k4_params()
        bd = social_cost(params, 1.0 / 3.0, SocialState.all_unprotected(params.distribution))
        assert bd.total == pytest.approx(0.5, abs=1e-12)
        assert bd.infected_term == pytest.approx(0.5, abs=1e-12)
        assert bd.vaccination_term == 0.0

    def test_equilibrium_of_k4_costs_exactly_c(self):
        # indifference makes the infected premium vanish
        params = k4_params()
        bd = social_cost(params, 1.0 / 3.0, SocialState(params.distribution, [0.75]))
        assert bd.total == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            dist = random_distribution(rng)
            params = random_params(rng, dist)
            c = float(rng.uniform(0.05, 0.95))
            state = SocialState(dist, rng.uniform(0.0, 1.0, dist.size) * dist.mass)
            bd = social_cost(params, c, state)
            assert bd.total == pytest.approx(bd.infected_term + bd.vaccination_term, abs=1e-12)
            # equivalent form c + sum x (p - c)
            from vaxgame import endemic_state

            es = endemic_state(params, state)
            alt = c + float(np.sum(state.unprotected * (es.p - c)))
            assert bd.total == pytest.approx(alt, abs=1e-12)
            assert 0.0 <= bd.total <= 1.0

    def test_cost_domain(self):
        params = k4_params()
        with pytest.raises(ValueError):
            social_cost(params, 1.0, SocialState.all_vaccinated(params.distribution))


class TestSocialOptimum:
    def test_single_degree_matches_dense_brute_force(self):
        params = k4_params()
        state, bd = solve_social_optimum(params, 1.0 / 3.0)
        # oracle: 1e-4-step fraction grid on the only threshold
        fracs = np.arange(0, 10_001, dtype=np.float64) / 10_000
        v = batch_endemic_v(params, fracs[:, None])
        p = 4.0 * v / (2.0 + 4.0 * v)
        psi = fracs * p + (1.0 / 3.0) * (1.0 - fracs)
        k = int(np.argmin(psi))
        assert state.threshold == 4
        assert state.fraction == pytest.approx(fracs[k], abs=1e-3)
        assert bd.total == pytest.approx(float(psi[k]), abs=1e-8)

    def test_k4_optimum_sits_at_criticality(self):
        # v(f) = f - 1/2 above criticality, so psi rises with slope 1 - c
        # past f = 1/2 and falls with slope -c below it
        params = k4_params()
        state, bd = solve_social_optimum(params, 0.25)
        assert state.fraction == pytest.approx(0.5, abs=1e-6)
        assert bd.total == pytest.approx(0.125, abs=1e-6)

    def test_high_cost_prefers_not_vaccinating_over_corner(self):
        # vaccinating everyone costs c, which is dominated whenever the
        # uncontrolled epidemic costs less
        params = k4_params()
        state, bd = solve_social_optimum(params, 0.9)
        no_vax = social_cost(params, 0.9, SocialState.all_unprotected(params.distribution))
        assert not state.is_all_vaccinated
        assert bd.total <= no_vax.total + 1e-12
        assert bd.total < 0.9

    def test_optimum_dominates_random_states_and_pne(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            dist = random_distribution(rng, max_degrees=5)
            params = random_params(rng, dist)
            c = float(rng.uniform(0.1, 0.9))
            state, bd = solve_social_optimum(params, c)
            for _ in range(20):
                probe = SocialState(dist, rng.uniform(0.0, 1.0, dist.size) * dist.mass)
                assert bd.total <= social_cost(params, c, probe).total + 1e-9
            pne = solve_pne(GameSpec(params, identity(), c))
            assert bd.total <= social_cost(params, c, pne.state.social_state()).total + 1e-9

    def test_zero_fraction_canonicalized(self):
        # an optimum at fraction zero must come back as the previous full
        # threshold (or the all-vaccinated corner), never fraction 0
        rng = np.random.default_rng(97)
        for _ in range(10):
            dist = random_distribution(rng, max_degrees=4)
            params = random_params(rng, dist)
            state, _ = solve_social_optimum(params, float(rng.uniform(0.1, 0.9)))
            if not state.is_all_vaccinated:
                assert state.fraction > 0.0

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            SocialOptimumSolver(k4_params(), grid_points=1)


def exhaustive_solve(solver, cost):
    """The ascending scan the pruned search replaces: refine every threshold.

    Uses the solver's own fraction tables and golden-section refinement,
    keeps the first threshold that strictly improves on everyone
    vaccinated and on every earlier threshold, and canonicalizes a zero
    fraction as the solver does.
    """
    dist = solver.params.distribution
    best_psi, best = cost, (None, 0.0)
    for j in range(dist.size):
        f_grid, infected, unprotected = solver._table(j)
        psi = infected + cost * (1.0 - unprotected)
        k = int(np.argmin(psi))
        lo = f_grid[max(k - 1, 0)]
        hi = f_grid[min(k + 1, f_grid.size - 1)]
        f_best, psi_best = _golden_min(
            lambda f: solver._psi(j, f, cost), float(lo), float(hi), solver.refine_width
        )
        if psi_best < best_psi:
            best_psi, best = psi_best, (j, float(f_best))
    j, f = best
    if j is None or f <= 0.0:
        j = None if j in (None, 0) else j - 1
        f = float(dist.mass[j]) if j is not None else 0.0
    state = CandidateState(dist, None if j is None else int(dist.degrees[j]), f)
    return state, social_cost(solver.params, cost, state.social_state())


class TestPruning:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.lists(st.integers(1, 30), min_size=2, max_size=6, unique=True),
        data=st.data(),
        delta_ratio=st.floats(0.05, 0.99),
        cost=st.floats(0.01, 0.99),
    )
    def test_floor_is_a_lower_bound(self, degrees, data, delta_ratio, cost):
        n = len(degrees)
        mass = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        dist = DegreeDistribution(sorted(degrees), mass / mass.sum())
        params = EpidemicParams(delta_ratio * dist.second_moment / dist.mean_degree, dist)
        floors = SocialOptimumSolver(params).floors(cost)
        d = dist.degrees.astype(np.float64)
        for j in range(n):
            states = np.zeros((200, n))
            states[:, :j] = dist.mass[:j]
            states[:, j] = np.linspace(0.0, float(dist.mass[j]), 200)
            v = batch_endemic_v(params, states)
            p = d * v[:, None] / (params.delta + d * v[:, None])
            psi = np.sum(states * p, axis=1) + cost * (1.0 - states.sum(axis=1))
            assert floors[j] <= float(np.min(psi)) + 1e-12

    def test_pruned_search_matches_exhaustive_scan(self):
        rng = np.random.default_rng(113)
        skipped = 0
        most_refined = 0
        for _ in range(20):
            dist = random_distribution(rng)
            params = random_params(rng, dist, lo=0.1, hi=0.95)
            cost = float(rng.uniform(0.02, 0.98))
            pruned = SocialOptimumSolver(params)
            state, bd = pruned.solve(cost)
            ref_state, ref_bd = exhaustive_solve(SocialOptimumSolver(params), cost)
            assert state.threshold == ref_state.threshold
            assert state.fraction == ref_state.fraction
            assert bd.total == ref_bd.total
            skipped += dist.size - len(pruned._tables)
            most_refined = max(most_refined, len(pruned._tables))
        # the floors prune on these instances, and some instance refines a
        # second threshold after the first one set the incumbent
        assert skipped > 0 and most_refined > 1

    def test_shared_ladder(self):
        dist = power_law(1, 40, 3.0)
        params = EpidemicParams(2.0, dist)
        ladder = ThresholdLadder(params)
        shared = SocialOptimumSolver(EpidemicParams(2.0, power_law(1, 40, 3.0)), ladder=ladder)
        assert shared.ladder is ladder
        state, bd = shared.solve(0.4)
        ref_state, ref_bd = SocialOptimumSolver(params).solve(0.4)
        assert (state.threshold, state.fraction, bd.total) == (
            ref_state.threshold,
            ref_state.fraction,
            ref_bd.total,
        )
        with pytest.raises(ValueError):
            SocialOptimumSolver(EpidemicParams(2.5, dist), ladder=ladder)

    def test_eradication_boundary_at_d_max_1000(self):
        params = EpidemicParams(2.0, power_law(1, 1000, 3.0))
        t_b, f_b, _ = eradication_boundary(params)
        solver = SocialOptimumSolver(params)
        for c in (0.1, 0.5, 0.9):
            state, _ = solver.solve(c)
            assert state.threshold == t_b
            assert state.fraction == pytest.approx(f_b, abs=1e-9)


class TestInefficiency:
    def test_k4_identity_gap_within_bound(self):
        params = k4_params()
        rep = inefficiency(params, GameSpec(params, identity(), 1.0 / 3.0))
        assert rep.gap >= -1e-9
        assert rep.gap_bound == pytest.approx(2.0)
        assert rep.gap <= rep.gap_bound
        assert rep.ordering_checked and rep.ordering_holds

    def test_ordering_skipped_for_overweighted_cost(self):
        # c = 0.1 < w(0.1) under prelec, the ordering hypothesis fails
        dist = power_law(1, 30, 2.5)
        params = EpidemicParams(1.5, dist)
        rep = inefficiency(params, GameSpec(params, prelec(0.5), 0.1))
        assert not rep.ordering_checked
        assert rep.ordering_holds is None

    def test_ordering_checked_for_underweighted_cost(self):
        dist = power_law(1, 30, 2.5)
        params = EpidemicParams(1.5, dist)
        rep = inefficiency(params, GameSpec(params, prelec(0.5), 0.8))
        assert rep.ordering_checked and rep.ordering_holds

    def test_random_identity_instances(self):
        rng = np.random.default_rng(83)
        for _ in range(8):
            dist = random_distribution(rng, max_degrees=5)
            params = random_params(rng, dist)
            rep = inefficiency(params, GameSpec(params, identity(), float(rng.uniform(0.1, 0.9))))
            assert rep.gap >= -1e-9
            assert rep.gap <= rep.gap_bound
            assert rep.ordering_holds
            assert compare_candidates(rep.optimum_state, rep.pne_state) <= 0

    def test_sweep_instance_vaccination_dominates_optimum_cost(self):
        dist = power_law(1, 100, 3.0)
        params = EpidemicParams(2.0, dist)
        solver = SocialOptimumSolver(params, grid_points=512)
        for c in (0.2, 0.5, 0.8):
            _, bd = solver.solve(c)
            assert bd.vaccination_term >= bd.infected_term
