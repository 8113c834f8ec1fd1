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
from vaxgame import planner
from vaxgame.dbmf import NEAR_CRITICAL_R, ROOT_TOL, _probabilities
from vaxgame.planner import GRID_POINTS, REFINE_WIDTH, SANITY_STATES, _golden_min

from conftest import count_rung_fills, eradication_boundary, random_distribution, random_params


def k4_params(delta=2.0):
    return EpidemicParams(delta, explicit({4: 1.0}))


class TestSocialCost:
    def test_everyone_vaccinated_costs_c(self):
        params = k4_params()
        bd = social_cost(params, 0.3, CandidateState.all_vaccinated(params.distribution))
        assert bd.total == pytest.approx(0.3, abs=1e-15)
        assert bd.infected_term == 0.0

    def test_single_degree_all_unprotected(self):
        params = k4_params()
        bd = social_cost(params, 1.0 / 3.0, CandidateState.all_unprotected(params.distribution))
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
            social_cost(params, 1.0, CandidateState.all_vaccinated(params.distribution))


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
        no_vax = social_cost(params, 0.9, CandidateState.all_unprotected(params.distribution))
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
            assert bd.total <= social_cost(params, c, pne.state).total + 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.lists(st.integers(1, 30), min_size=2, max_size=6, unique=True),
        data=st.data(),
        delta_ratio=st.floats(0.05, 0.99),
        cost=st.floats(0.01, 0.99),
        alpha=st.one_of(st.none(), st.floats(0.05, 1.0)),
    )
    def test_optimum_never_exceeds_c_or_the_equilibrium(self, degrees, data, delta_ratio, cost, alpha):
        n = len(degrees)
        mass = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        dist = DegreeDistribution(sorted(degrees), mass / mass.sum())
        params = EpidemicParams(delta_ratio * dist.second_moment / dist.mean_degree, dist)
        _, bd = solve_social_optimum(params, cost)
        weighting = identity() if alpha is None else prelec(alpha)
        pne = solve_pne(GameSpec(params, weighting, cost))
        assert bd.total <= cost + 1e-12
        assert bd.total <= social_cost(params, cost, pne.state).total + 1e-9

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


def exhaustive_solve(params, cost):
    """The ascending scan the boundary search replaces: refine every threshold.

    Tabulates each threshold's fraction grid itself, refines its minimum
    by the planner's golden section, and keeps the first threshold that
    strictly improves on everyone vaccinated and on every earlier threshold.
    """
    dist = params.distribution
    best_psi, best = cost, (None, 0.0)
    for j in range(dist.size):
        f_grid = np.linspace(0.0, float(dist.mass[j]), GRID_POINTS)
        states = np.zeros((GRID_POINTS, dist.size))
        states[:, :j] = dist.mass[:j]
        states[:, j] = f_grid
        p = _probabilities(params, batch_endemic_v(params, states))
        psi = np.sum(states * p, axis=1) + cost * (1.0 - states.sum(axis=1))
        k = int(np.argmin(psi))
        lo = f_grid[max(k - 1, 0)]
        hi = f_grid[min(k + 1, f_grid.size - 1)]
        threshold = dist.degrees[j]
        f_best, psi_best = _golden_min(
            lambda f: social_cost(params, cost, CandidateState(dist, threshold, f)).total,
            float(lo),
            float(hi),
            REFINE_WIDTH,
        )
        if psi_best < best_psi:
            best_psi, best = psi_best, (j, float(f_best))
    j, f = best
    state = CandidateState(dist, None if j is None else int(dist.degrees[j]), f)
    return state, social_cost(params, cost, state)


def near_boundary_params(rng, dist, full):
    """Parameters whose boundary fraction lies 1e-16 to 1e-8 (relative to
    the degree's mass) above 0, or below the full mass if ``full``."""
    d = dist.degrees.astype(np.float64)
    cum = np.cumsum(d * d * dist.mass)
    # a fraction near 0 at the lowest degree would need delta near 0
    j = int(rng.integers(0 if full else 1, dist.size))
    gap = 10.0 ** rng.uniform(-16, -8) * float(dist.mass[j]) * d[j] ** 2
    need = float(cum[j]) - gap if full else float(cum[j - 1]) + gap
    return EpidemicParams(need / dist.mean_degree, dist)


def record_batch_rows(monkeypatch):
    """Record the row count of every planner ``batch_endemic_v`` call from here on."""
    batch = planner.batch_endemic_v
    rows = []

    def counted(params, states, *args, **kwargs):
        rows.append(len(states))
        return batch(params, states, *args, **kwargs)

    monkeypatch.setattr(planner, "batch_endemic_v", counted)
    return rows


def reevaluating_golden_min(fn, a, b, width):
    """The golden section before it carried its bracket ends' values: it
    evaluated both ends again at the close."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    best = (c, fc) if fc <= fd else (d, fd)
    while b - a > width:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
        cand = (c, fc) if fc <= fd else (d, fd)
        if cand[1] < best[1]:
            best = cand
    for x, fx in ((a, fn(a)), (b, fn(b))):
        if fx < best[1]:
            best = (x, fx)
    return best


class TestGoldenMin:
    @pytest.mark.parametrize(
        "fn, a, b",
        [
            (lambda x: (x - 0.3) ** 2, 0.0, 1.0),  # convex, interior minimum
            (lambda x: x, 0.2, 0.7),  # minimum at the left end
            (lambda x: -x, 0.2, 0.7),  # minimum at the right end
            (lambda x: (x - 0.3) ** 2, 0.25, 0.25 + 1e-11),  # bracket narrower than the width
        ],
        ids=["convex", "left-end", "right-end", "narrow"],
    )
    def test_each_point_evaluated_once(self, fn, a, b):
        calls = []

        def counted(x):
            calls.append(x)
            return fn(x)

        best = _golden_min(counted, a, b, REFINE_WIDTH)
        assert len(calls) == len(set(calls)), len(calls) - len(set(calls))
        assert best == reevaluating_golden_min(fn, a, b, REFINE_WIDTH)
        assert best[1] == fn(best[0])


class TestPruning:
    """The search refines the eradication-boundary threshold and prunes the rest."""

    def test_sweep_fills_no_rung_and_solves_two_batches(self, monkeypatch):
        # 19 costs at d_max = 3000: the boundary comes from a cumulative sum,
        # so no ladder rung is filled, and the only root batches are the
        # boundary threshold's fraction grid and the sanity states
        params = EpidemicParams(2.0, power_law(1, 3000, 3.0))
        rungs = count_rung_fills(monkeypatch)
        rows = record_batch_rows(monkeypatch)
        solver = SocialOptimumSolver(params)
        for c in np.linspace(0.05, 0.95, 19):
            solver.solve(float(c))
        assert rungs() == 0
        assert sorted(rows) == sorted([GRID_POINTS, SANITY_STATES])

    def test_sanity_states_solved_once_per_solver(self, monkeypatch):
        # the random states do not depend on the cost: one batch of them
        # serves a whole sweep, and the check still runs at every cost
        params = EpidemicParams(2.0, power_law(1, 100, 3.0))
        rows = record_batch_rows(monkeypatch)
        solver = SocialOptimumSolver(params)
        costs = np.linspace(0.05, 0.95, 19)
        for c in costs:
            solver.solve(float(c))
        assert rows.count(SANITY_STATES) == 1
        # a random state infecting nobody and vaccinating nobody costs 0
        solver._sanity_masses = (np.zeros(1), np.ones(1))
        for c in costs:
            with pytest.raises(RuntimeError, match="non-candidate state"):
                solver.solve(float(c))

    def test_pruned_search_matches_exhaustive_scan(self):
        rng = np.random.default_rng(113)
        cases = []
        for _ in range(20):
            dist = random_distribution(rng)
            cases.append((random_params(rng, dist, lo=0.1, hi=0.95), float(rng.uniform(0.02, 0.98))))
        # boundary fractions a rounding away from 0 or from the full mass,
        # where the neighbouring threshold's full state nearly ties
        for full in (False, True) * 6:
            params = near_boundary_params(rng, random_distribution(rng), full)
            cases.append((params, float(rng.uniform(0.02, 0.98))))
        for params, cost in cases:
            state, bd = SocialOptimumSolver(params).solve(cost)
            ref_state, ref_bd = exhaustive_solve(params, cost)
            assert state.threshold == ref_state.threshold
            assert state.fraction == ref_state.fraction
            assert bd.total == ref_bd.total
            assert bd.infected_term == ref_bd.infected_term

    def test_shared_ladder(self):
        # the equilibrium refuses a ladder of another epidemic
        dist = power_law(1, 40, 3.0)
        ladder = ThresholdLadder(EpidemicParams(2.0, dist))
        for other in (EpidemicParams(2.5, dist), EpidemicParams(2.0, power_law(1, 39, 3.0))):
            with pytest.raises(ValueError, match="curing rate or degree set"):
                solve_pne(GameSpec(other, identity(), 0.5), ladder=ladder)

    def test_eradication_boundary_at_d_max_1000(self):
        params = EpidemicParams(2.0, power_law(1, 1000, 3.0))
        t_b, f_b, _ = eradication_boundary(params)
        solver = SocialOptimumSolver(params)
        for c in (0.1, 0.5, 0.9):
            state, _ = solver.solve(c)
            assert state.threshold == t_b
            assert state.fraction == pytest.approx(f_b, abs=1e-9)


class TestInfectedMassBound:
    """``I(x) >= U(x) - U*``, the fact the boundary search rests on.

    U* is the unprotected mass of the eradication-boundary state, which
    ``conftest.eradication_boundary`` builds from its own cumulative sum.
    The residual state ``x*(1 - p)`` of an endemic x has R = 1 up to the
    root's residual, and a disease-free x has R <= 1 + NEAR_CRITICAL_R;
    either excess of R buys at most ``delta*<d>/d_min^2`` of unprotected
    mass per unit, which with a few ulps of summation is the allowance.
    """

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.lists(st.integers(1, 30), min_size=2, max_size=8, unique=True),
        data=st.data(),
        delta_ratio=st.floats(0.01, 0.9999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_infected_mass_covers_the_excess_unprotected_mass(self, degrees, data, delta_ratio, seed):
        n = len(degrees)
        mass = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        dist = DegreeDistribution(sorted(degrees), mass / mass.sum())
        params = EpidemicParams(delta_ratio * dist.second_moment / dist.mean_degree, dist)
        t_b, f_b, u_star = eradication_boundary(params)

        # random states with every degree partly vaccinated, then the
        # threshold path: 33 fractions on every threshold, and fractions
        # a relative 1e-12 to 1e-3 either side of the boundary fraction
        rng = np.random.default_rng(seed)
        rows = [rng.uniform(size=(40, n)) * dist.mass]
        j_b = dist.index_of(t_b)
        for j in range(n):
            near = f_b * (1.0 + np.outer([-1.0, 1.0], 10.0 ** -np.arange(3, 13)).ravel())
            fractions = np.linspace(0.0, float(dist.mass[j]), 33)
            if j == j_b:
                fractions = np.concatenate([fractions, [f_b], np.clip(near, 0.0, float(dist.mass[j]))])
            path = np.zeros((fractions.size, n))
            path[:, :j] = dist.mass[:j]
            path[:, j] = fractions
            rows.append(path)
        states = np.vstack(rows)

        infected = np.sum(states * _probabilities(params, batch_endemic_v(params, states)), axis=1)
        excess = states.sum(axis=1) - u_star
        d_min = float(dist.degrees[0])
        allowance = (NEAR_CRITICAL_R + ROOT_TOL) * params.delta * dist.mean_degree / d_min**2
        allowance += 64 * np.finfo(np.float64).eps
        assert np.min(infected - excess) >= -allowance


class TestInefficiency:
    def test_k4_identity_gap_within_bound(self):
        params = k4_params()
        rep = inefficiency(GameSpec(params, identity(), 1.0 / 3.0))
        assert rep.gap >= -1e-9
        assert rep.gap_bound == pytest.approx(2.0)
        assert rep.gap <= rep.gap_bound
        assert rep.ordering_checked and rep.ordering_holds

    def test_ordering_skipped_for_overweighted_cost(self):
        # c = 0.1 < w(0.1) under prelec, the ordering hypothesis fails
        dist = power_law(1, 30, 2.5)
        params = EpidemicParams(1.5, dist)
        rep = inefficiency(GameSpec(params, prelec(0.5), 0.1))
        assert not rep.ordering_checked
        assert rep.ordering_holds is None

    def test_ordering_checked_for_underweighted_cost(self):
        dist = power_law(1, 30, 2.5)
        params = EpidemicParams(1.5, dist)
        rep = inefficiency(GameSpec(params, prelec(0.5), 0.8))
        assert rep.ordering_checked and rep.ordering_holds

    def test_random_identity_instances(self):
        rng = np.random.default_rng(83)
        for _ in range(8):
            dist = random_distribution(rng, max_degrees=5)
            params = random_params(rng, dist)
            rep = inefficiency(GameSpec(params, identity(), float(rng.uniform(0.1, 0.9))))
            assert rep.gap >= -1e-9
            assert rep.gap <= rep.gap_bound
            assert rep.ordering_holds
            assert compare_candidates(rep.optimum_state, rep.pne_state) <= 0

    def test_sweep_instance_vaccination_dominates_optimum_cost(self):
        dist = power_law(1, 100, 3.0)
        params = EpidemicParams(2.0, dist)
        solver = SocialOptimumSolver(params)
        for c in (0.2, 0.5, 0.8):
            _, bd = solver.solve(c)
            assert bd.vaccination_term >= bd.infected_term
