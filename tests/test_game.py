"""Vaccination game: costs, candidate ordering, equilibrium solver."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxgame import (
    CandidateState,
    EpidemicParams,
    GameSpec,
    SocialState,
    ThresholdLadder,
    compare_candidates,
    compare_true_vs_weighted,
    explicit,
    identity,
    power_law,
    prelec,
    solve_pne,
    unprotected_cost,
    verify_pne,
    weight,
    weight_inverse,
)
from vaxgame import cli
from vaxgame.cli import cmd_pne, load_scenario
from vaxgame.dbmf import ROOT_TOL
from vaxgame.degree import MIN_MASS, DegreeDistribution

from conftest import (
    brute_force_pne,
    certificate_reference,
    random_distribution,
    random_params,
    record_root_widths,
    set_cpus,
    states_within_one_step,
    walk_pne,
)

PRELEC_05_AT_05 = 0.4349367715757099  # exp(-(ln 2)^0.5), 40-digit reference
EPS = np.finfo(float).eps / 2  # the unit roundoff u


@st.composite
def distributions(draw):
    """An explicit degree set of 1 to 12 degrees in 1..60, or a power law of up to 151 degrees."""
    if draw(st.booleans()):
        degrees = draw(st.lists(st.integers(1, 60), min_size=1, max_size=12, unique=True))
        mass = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(degrees), max_size=len(degrees))))
        return DegreeDistribution(sorted(degrees), mass / mass.sum())
    d_min = draw(st.integers(1, 4))
    return power_law(d_min, d_min + draw(st.integers(0, 150)), draw(st.floats(2.05, 3.5)))


@st.composite
def certificate_games(draw):
    """A game on 1 to 12 explicit degrees in 1..60, some of mass exactly MIN_MASS,
    under identity or Prelec alpha in [0.05, 1], with the states to certify:
    its equilibrium, that equilibrium shaved below the 1e-15 floor, a threshold
    state, a random social state and the top and bottom candidates."""
    degrees = sorted(draw(st.lists(st.integers(1, 60), min_size=1, max_size=12, unique=True)))
    n = len(degrees)
    tiny = np.zeros(n, dtype=bool)
    tiny[list(draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))] = True
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    mass = np.where(tiny, MIN_MASS, raw / raw[~tiny].sum() * (1.0 - MIN_MASS * tiny.sum()))
    dist = DegreeDistribution(degrees, mass)
    ratio = draw(st.floats(0.01, 0.9999))
    params = EpidemicParams(ratio * dist.second_moment / dist.mean_degree, dist)
    w = identity() if draw(st.booleans()) else prelec(draw(st.floats(0.05, 1.0)))
    spec = GameSpec(params, w, draw(st.floats(0.01, 0.99)))

    res = solve_pne(spec)
    t = dist.index_of(res.state.threshold)
    shaved = np.array(res.state.unprotected)
    shaved[:t] = np.nextafter(dist.mass[:t], 0.0)
    j = draw(st.integers(0, n - 1))
    # a fraction at the full mass, within the 1e-15 floor of it, or anywhere below
    gap = draw(st.sampled_from([0.0, 5e-16, 1e-15, 2e-15]) | st.floats(0.0, 1.0).map(lambda s: s * dist.mass[j]))
    scale = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=n, max_size=n))
    states = [
        res.state,
        SocialState(dist, shaved),
        CandidateState(dist, degrees[j], max(float(dist.mass[j]) - gap, 0.0)),
        SocialState(dist, np.array(scale) * dist.mass),
        CandidateState.all_vaccinated(dist),
        CandidateState.all_unprotected(dist),
    ]
    return spec, states


class CountingLadder(ThresholdLadder):
    """Ladder that records which rungs were asked for."""

    def __init__(self, params):
        super().__init__(params)
        self.asked = set()

    def v_at(self, index):
        self.asked.add(index)
        return super().v_at(index)


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
        m4 = self.dist.mass_of(4)
        for bad in (-1e-12, 2 * m4, float("nan")):
            with pytest.raises(ValueError):
                CandidateState(self.dist, 4, bad)
        # zero mass at the threshold is the full state at the previous degree
        zero = CandidateState(self.dist, 4, 0.0)
        assert (zero.threshold, zero.fraction) == (3, self.dist.mass_of(3))
        assert zero.unprotected[3] == 0.0
        with pytest.raises(KeyError):
            CandidateState(self.dist, 11)

    def test_candidate_is_the_threshold_social_state(self):
        m4 = self.dist.mass_of(4)
        mass = self.dist.mass
        for threshold, fraction in ((None, None), (4, None), (4, 0.3 * m4), (4, m4 + 1e-16)):
            cand = CandidateState(self.dist, threshold, fraction)
            assert isinstance(cand, SocialState)
            assert not cand.unprotected.flags.writeable
            if threshold is None:
                want, f = np.zeros_like(mass), 0.0
            else:
                # mass below the threshold, the fraction at it, zeros above
                f = m4 if fraction is None else min(fraction, m4)
                want = np.concatenate([mass[:3], [f], np.zeros(mass.size - 4)])
            np.testing.assert_array_equal(cand.unprotected, want)
            assert cand.fraction == f

    def test_top_and_bottom_candidates(self):
        dist = power_law(1, 10, 3.0)
        top, bottom = CandidateState.all_unprotected(dist), CandidateState.all_vaccinated(dist)
        assert isinstance(top, CandidateState) and isinstance(bottom, CandidateState)
        assert (top.threshold, top.fraction) == (10, dist.mass_of(10))
        assert (bottom.threshold, bottom.fraction) == (None, 0.0)
        np.testing.assert_array_equal(top.unprotected, dist.mass)
        np.testing.assert_array_equal(bottom.unprotected, np.zeros(dist.size))
        assert compare_candidates(bottom, top) == -1

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.lists(st.integers(1, 60), min_size=1, max_size=12, unique=True),
        data=st.data(),
    )
    def test_one_representation_per_threshold_state(self, degrees, data):
        n = len(degrees)
        mass = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        dist = DegreeDistribution(sorted(degrees), mass / mass.sum())
        bottom = CandidateState(dist, None)
        for j, t in enumerate(dist.degrees):
            zero = CandidateState(dist, t, 0.0)
            # fraction 0 at t_j is the full state at t_{j-1}, or everyone
            # vaccinated at d_min: same array, same labels, equal in the order
            same = CandidateState(dist, dist.degrees[j - 1]) if j else bottom
            np.testing.assert_array_equal(zero.unprotected, same.unprotected)
            assert (zero.threshold, zero.fraction) == (same.threshold, same.fraction)
            assert compare_candidates(zero, same) == 0
            m = float(dist.mass[j])
            f = data.draw(st.floats(0.0, m, exclude_min=True))
            cand = CandidateState(dist, t, f)
            want = np.concatenate([dist.mass[:j], [f], np.zeros(n - j - 1)])
            np.testing.assert_array_equal(cand.unprotected, want)
            assert (cand.threshold, cand.fraction) == (int(t), f)
        np.testing.assert_array_equal(bottom.unprotected, np.zeros(n))
        assert (bottom.threshold, bottom.fraction) == (None, 0.0)


class TestUnprotectedCost:
    def test_disease_free_is_free(self):
        spec = k4_spec()
        state = CandidateState.all_vaccinated(spec.distribution)
        assert unprotected_cost(spec, state, 4) == 0.0

    def test_single_degree_identity(self):
        spec = k4_spec()
        state = CandidateState.all_unprotected(spec.distribution)
        assert unprotected_cost(spec, state, 4) == pytest.approx(0.5, abs=1e-12)

    def test_single_degree_prelec(self):
        spec = k4_spec(weighting=prelec(0.5))
        state = CandidateState.all_unprotected(spec.distribution)
        assert unprotected_cost(spec, state, 4) == pytest.approx(PRELEC_05_AT_05, abs=1e-12)


class TestSolvePne:
    def test_single_degree_interior_closed_form(self):
        res = solve_pne(k4_spec())
        assert res.state.threshold == 4
        assert res.state.fraction == pytest.approx(0.75, abs=1e-9)
        assert res.v == pytest.approx(0.25, abs=1e-9)
        assert res.interior
        assert walk_pne(k4_spec())[1] == 1
        # indifference at the threshold
        assert res.perceived_cost_at_threshold == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_single_degree_boundary_nobody_vaccinates(self):
        # perceived cost at the fully unprotected state is w(0.5) = 0.5;
        # any cost at or above it keeps everyone unprotected
        for c in (0.5, 0.6, 0.9):
            res = solve_pne(k4_spec(cost=c))
            assert res.state.threshold == 4
            assert res.state.fraction == 1.0
            assert res.v == pytest.approx(0.5, abs=1e-12)
            assert not res.interior
            assert walk_pne(k4_spec(cost=c))[1] == 1
            assert math.isinf(res.window[1])

    def test_threshold_structure_of_output(self):
        dist = power_law(1, 40, 2.5)
        spec = GameSpec(EpidemicParams(1.5, dist), prelec(0.6), 0.35)
        res = solve_pne(spec)
        x = res.state.unprotected
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
        res = solve_pne(spec)
        assert res.interior
        assert walk_pne(spec)[1] == 1
        assert res.reproduction > 1.0
        assert verify_pne(spec, res.state).passed

    def test_near_critical_equilibrium_flagged(self):
        dist = power_law(1, 100, 3.0)
        params = EpidemicParams(2.0, dist)
        res = solve_pne(GameSpec(params, identity(), 1e-13))
        assert res.interior
        assert res.degenerate_near_critical
        assert 0.0 < res.state.fraction < dist.mass_of(res.state.threshold)

    @pytest.mark.parametrize("eps", [1e-12, 5e-13, 1e-13])
    def test_curing_rate_at_criticality_leaves_everyone_unprotected(self, eps):
        # every rung is subcritical (v = 0); only the unbounded last window
        # holds K, and its state has nothing vaccinated, so nobody is at risk
        dist = power_law(1, 50, 3.0)
        params = EpidemicParams((1.0 - eps) * dist.second_moment / dist.mean_degree, dist)
        spec = GameSpec(params, identity(), 0.3)
        res = solve_pne(spec)
        assert res.state.threshold == 50
        assert res.state.fraction == dist.mass_of(50)
        assert res.v == 0.0
        assert walk_pne(spec)[1] == 1
        assert res.degenerate_near_critical
        assert verify_pne(spec, res.state).max_violation <= 1e-9

    def test_inverse_weight_rounding_to_one_leaves_everyone_unprotected(self):
        dist = power_law(1, 100, 3.0)
        spec = GameSpec(EpidemicParams(2.0, dist), prelec(0.05), 0.9)
        assert weight_inverse(spec.weighting, spec.cost) == 1.0
        res = solve_pne(spec)
        assert math.isinf(res.K)
        assert res.state.threshold == 100
        assert res.state.fraction == dist.mass_of(100)
        assert walk_pne(spec)[1] == 1
        assert verify_pne(spec, res.state).passed

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.lists(st.integers(1, 60), min_size=2, max_size=12, unique=True),
        data=st.data(),
        delta_ratio=st.floats(0.01, 0.9999),
        cost=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        alpha=st.one_of(st.none(), st.floats(0.05, 1.0)),
        place=st.one_of(st.none(), st.tuples(st.integers(0, 10), st.floats(0.0, 1.0))),
    )
    def test_bisection_matches_window_walk(self, degrees, data, delta_ratio, cost, alpha, place):
        n = len(degrees)
        mass = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        dist = DegreeDistribution(sorted(degrees), mass / mass.sum())
        params = EpidemicParams(delta_ratio * dist.second_moment / dist.mean_degree, dist)
        w = identity() if alpha is None else prelec(alpha)
        ladder = ThresholdLadder(params)
        if place is not None:
            # a cost whose K falls in a bounded boundary window, up to
            # rounding at its edges; uniform costs rarely land in one
            j, s = place[0] % (n - 1), place[1]
            v_j = ladder.v_at(j)
            K = (dist.degrees[j] + s * (dist.degrees[j + 1] - dist.degrees[j])) * v_j
            placed = float(weight(w, K / (params.delta + K)))
            if 0.0 < placed < 1.0:
                cost = placed
        spec = GameSpec(params, w, cost)
        res = solve_pne(spec, ladder=ladder)
        got = (res.state.threshold, res.state.fraction, res.v, res.window, res.degenerate_window_tie)
        assert got == walk_pne(spec, ladder)[0]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.lists(st.integers(1, 60), min_size=2, max_size=12, unique=True),
        data=st.data(),
        delta_ratio=st.floats(0.01, 0.9999, exclude_min=True, exclude_max=True),
    )
    def test_windows_are_monotone(self, degrees, data, delta_ratio):
        # each rung's lower edge t*v_t clears the previous upper edge
        # succ(t_prev)*v_prev = t*v_prev, the order the bisection relies on
        n = len(degrees)
        mass = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        dist = DegreeDistribution(sorted(degrees), mass / mass.sum())
        params = EpidemicParams(delta_ratio * dist.second_moment / dist.mean_degree, dist)
        # the walk checks every rung, whatever the cost
        walk_pne(GameSpec(params, identity(), 0.5))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.lists(st.integers(1, 60), min_size=3, max_size=12, unique=True),
        data=st.data(),
        delta_ratio=st.floats(0.01, 0.9999, exclude_min=True, exclude_max=True),
    )
    def test_window_tops_grow_past_the_subcritical_rungs(self, degrees, data, delta_ratio):
        # the subcritical rungs (v = 0) form a prefix, and past it the tops
        # succ(t_j)*v_j never fall: the order solve_pne's bisection assumes
        n = len(degrees)
        mass = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        dist = DegreeDistribution(sorted(degrees), mass / mass.sum())
        params = EpidemicParams(delta_ratio * dist.second_moment / dist.mean_degree, dist)
        ladder = ThresholdLadder(params)
        v = np.array([ladder.v_at(j) for j in range(n - 1)])
        first = int(np.count_nonzero(v == 0.0))
        assert np.all(v[:first] == 0.0)
        tops = dist.degrees[1:] * v
        assert np.all(np.diff(tops[first:]) >= 0.0)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dist=distributions(), delta_ratio=st.floats(0.01, 0.9999, exclude_min=True, exclude_max=True))
    def test_a_rung_comparison_is_a_sign_test(self, dist, delta_ratio):
        # g_j(w) = sum_{i<=j} (d_i^2 m_i/<d>)/(delta + d_i w) - 1 falls strictly
        # in w and the rung v_j is its root, so g_j(w) >= 0 exactly when
        # v_j >= w, wherever |g_j(w)| clears ROOT_TOL, the root's own
        # tolerance, and the rounding of both evaluations of g_j
        params = EpidemicParams(delta_ratio * dist.second_moment / dist.mean_degree, dist)
        ladder = ThresholdLadder(params)
        d, coeff = dist.float_degrees, dist.mass * (dist.float_degrees**2) / dist.mean_degree
        decided = 0
        for j in range(dist.size):
            v_j = ladder.v_at(j)
            if v_j == 0.0:
                continue
            gamma = (j + 7) * EPS / (1 - (j + 7) * EPS)  # n = j + 1 terms, six roundings each
            for k in range(1, 11):
                for w in (v_j * (1 - 10.0**-k), v_j * (1 + 10.0**-k)):
                    terms = coeff[: j + 1] / (params.delta + d[: j + 1] * w)
                    g = float(np.sum(terms)) - 1.0
                    if abs(g) > ROOT_TOL + 2 * gamma * float(np.sum(terms)):
                        assert (g >= 0.0) == (v_j >= w), (j, k, w, g)
                        decided += 1
        # the last rung, everyone unprotected, is supercritical for delta below <d^2>/<d>
        assert decided > 0

    def test_walk_catches_a_non_monotone_ladder(self):
        # halving v on odd rungs drops their lower edge t*v_t/2 below the
        # previous upper edge t*v_{t-1} once the ladder saturates
        class HalvingLadder(ThresholdLadder):
            def v_at(self, index):
                v = super().v_at(index)
                return 0.5 * v if index % 2 else v

        params = EpidemicParams(1.2, power_law(1, 30, 2.5))
        spec = GameSpec(params, identity(), 0.3)
        walk_pne(spec)
        with pytest.raises(AssertionError, match="not monotone"):
            walk_pne(spec, HalvingLadder(params))

    def test_exponent_three_sweep_at_large_d_max(self):
        dist = power_law(2, 10_000, 3.0)
        params = EpidemicParams(2.0, dist)
        ladder = CountingLadder(params)
        costs = np.linspace(0.05, 0.95, 19)
        for w in (identity(), prelec(0.75), prelec(0.5)):
            prev = 0
            for c in costs:
                spec = GameSpec(params, w, float(c))
                res = solve_pne(spec, ladder=ladder)
                assert verify_pne(spec, res.state).passed, (w.label, c)
                assert res.state.threshold >= prev, (w.label, c)
                prev = res.state.threshold
        # only a boundary equilibrium asks for its rung; a walk up to each
        # threshold would ask for every rung below the largest one
        assert len(ladder.asked) < 200

    def test_matches_brute_force_small_sets(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            dist = random_distribution(rng, max_degrees=3, degree_pool=12)
            params = random_params(rng, dist)
            w = identity() if rng.random() < 0.5 else prelec(float(rng.uniform(0.3, 0.95)))
            spec = GameSpec(params, w, float(rng.uniform(0.05, 0.9)))
            res = solve_pne(spec)
            assert walk_pne(spec)[1] == 1
            t, f, _ = brute_force_pne(spec, grid=1000)
            assert states_within_one_step(
                dist, (t, f), (res.state.threshold, res.state.fraction)
            ), (t, f, res.state)


def assert_certifies_as_reference(spec, state, cert):
    """``cert`` of ``state`` against the n-wide reference: the same worst slack
    to the bit, the same verdict, and a degree where that slack is reached."""
    worst, passed, viol = certificate_reference(spec, state)
    assert cert.max_violation.hex() == worst.hex(), state
    assert cert.passed == passed
    if worst > 0.0:
        assert viol[spec.distribution.index_of(cert.degree)] == worst
    else:
        assert cert.degree is None


class TestVerifyPne:
    def test_solver_output_certifies(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            dist = random_distribution(rng)
            params = random_params(rng, dist)
            spec = GameSpec(params, prelec(0.7), float(rng.uniform(0.05, 0.95)))
            cert = verify_pne(spec, solve_pne(spec).state)
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
            shaved = np.array(res.state.unprotected)
            shaved[dist.degrees < t] = np.nextafter(dist.mass[dist.degrees < t], 0.0)
            states = [
                res.state,
                SocialState(dist, shaved),
                SocialState(dist, rng.uniform(0.0, 1.0, dist.size) * dist.mass),
                CandidateState(dist, t, min(res.state.fraction * 1.1, dist.mass_of(t))),
                CandidateState.all_vaccinated(dist),
                CandidateState.all_unprotected(dist),
            ]
            for social in states:
                assert_certifies_as_reference(spec, social, verify_pne(spec, social))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(game=certificate_games())
    def test_two_degrees_decide_as_every_degree(self, game):
        # the two-degree check against the n-wide one: the same worst slack
        # to the bit, the same verdict, and a degree where that slack is reached
        spec, states = game
        for state in states:
            assert_certifies_as_reference(spec, state, verify_pne(spec, state))

    def test_rejects_non_states(self):
        spec = k4_spec()
        for other in (spec.distribution.mass, solve_pne(spec)):
            with pytest.raises(TypeError):
                verify_pne(spec, other)

    def test_fraction_off_by_a_millionth_fails(self):
        # CERT_TOL sees an interior threshold fraction scaled by 1 -+ 1e-6
        params = EpidemicParams(2.0, power_law(1, 100, 3.0))
        for spec in (k4_spec(), GameSpec(params, identity(), 0.1)):
            res = solve_pne(spec)
            assert res.interior
            t, f = res.state.threshold, res.state.fraction
            for scale in (1.0 - 1e-6, 1.0 + 1e-6):
                assert not verify_pne(spec, CandidateState(spec.distribution, t, f * scale)).passed

    def test_everyone_vaccinated_violates_by_cost(self):
        spec = k4_spec(cost=0.4)
        cert = verify_pne(spec, CandidateState.all_vaccinated(spec.distribution))
        assert cert.max_violation == pytest.approx(0.4, abs=1e-15)
        assert not cert.passed


class TestRootWorkBudget:
    """Threshold states are solved on their prefix, not on every degree."""

    def test_rung_solves_on_its_prefix(self, monkeypatch):
        dist = power_law(1, 1000, 3.0)
        ladder = ThresholdLadder(EpidemicParams(2.0, dist))
        widths = record_root_widths(monkeypatch)
        solved = 0
        for j in (0, 5, 15, 40, 200, dist.size - 2, dist.size - 1):
            widths.clear()
            v = ladder.v_at(j)
            # a subcritical rung needs no root solve
            assert widths == ([j + 1] if v > 0.0 else [])
            solved += v > 0.0
            widths.clear()
            assert ladder.v_at(j) == v and widths == []
        assert solved >= 5

    def test_certificate_solves_on_the_threshold_prefix(self, monkeypatch):
        dist = power_law(1, 1000, 3.0)
        spec = GameSpec(EpidemicParams(2.0, dist), prelec(0.5), 0.3)
        res = solve_pne(spec)
        widths = record_root_widths(monkeypatch)
        split = CandidateState(dist, 50, 0.5 * dist.mass_of(50))
        for cand in (res.state, split, CandidateState(dist, 1000)):
            widths.clear()
            cert = verify_pne(spec, cand)
            assert widths == [dist.index_of(cand.threshold) + 1]
            assert_certifies_as_reference(spec, cand, cert)

    def test_equilibrium_and_certificate_allocate_no_n_wide_array(self):
        # after the ladder's one n-wide set-up, each (cost, weighting) works on
        # its threshold's prefix: its peak allocation stays below half of one
        # float array over the degrees, where one n-wide array would pass it
        params = EpidemicParams(2.0, power_law(1, 80_000, 3.0))
        n = params.distribution.size
        ladder = ThresholdLadder(params)
        specs = [GameSpec(params, w, c) for w in (identity(), prelec(0.5)) for c in (0.1, 0.5, 0.9)]
        tracemalloc.start()
        try:
            kinds = set()
            for spec in specs:
                res = solve_pne(spec, ladder=ladder)
                assert verify_pne(spec, res.state).passed
                kinds.add(res.interior)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kinds == {True, False}
        assert peak < 4 * n, peak

    def test_pne_sweep_column_budget(self, monkeypatch, tmp_path):
        # the bench sweep's shape: 91 costs x 3 weightings over 4,999 degrees,
        # on one CPU, so every solve runs in this process and is counted
        set_cpus(monkeypatch, 1)
        scenario = tmp_path / "sweep.json"
        scenario.write_text(
            json.dumps(
                {
                    "distribution": {"type": "powerlaw", "d_min": 2, "d_max": 5000, "beta": 3.0},
                    "delta": 2.0,
                    "weightings": [
                        {"kind": "identity"},
                        {"kind": "prelec", "alpha": 0.75},
                        {"kind": "prelec", "alpha": 0.5},
                    ],
                    "cost": {"start": 0.05, "stop": 0.95, "steps": 91},
                }
            )
        )
        loaded = load_scenario(str(scenario))
        widths = record_root_widths(monkeypatch)
        _, rows = cmd_pne(loaded)
        n = loaded.distribution.size
        assert len(rows) == 273 and n == 4999
        assert sum(widths) <= 0.1 * len(widths) * n, sum(widths) / (len(widths) * n)


    def test_pne_sweep_placement_budget(self, monkeypatch, tmp_path):
        # the bench sweep's shape on one CPU: each (cost, weighting) solves at
        # most two roots, its certificate and at most one boundary rung, and
        # no sign test sums more than 2*j + 1 terms, j the threshold's index
        set_cpus(monkeypatch, 1)
        scenario = tmp_path / "sweep.json"
        scenario.write_text(
            json.dumps(
                {
                    "distribution": {"type": "powerlaw", "d_min": 2, "d_max": 5000, "beta": 3.0},
                    "delta": 2.0,
                    "weightings": [
                        {"kind": "identity"},
                        {"kind": "prelec", "alpha": 0.75},
                        {"kind": "prelec", "alpha": 0.5},
                    ],
                    "cost": {"start": 0.05, "stop": 0.95, "steps": 91},
                }
            )
        )
        loaded = load_scenario(str(scenario))
        dist = loaded.distribution
        widths = record_root_widths(monkeypatch)
        probes, solves, starts = [], [], []
        g, solve = ThresholdLadder.g, cli.solve_pne

        def probed(self, index, y):
            probes.append(index + 1)
            return g(self, index, y)

        def solved(spec, ladder=None):
            # a solve's roots and its certificate's follow its start
            starts.append(len(widths))
            probes.clear()
            res = solve(spec, ladder=ladder)
            solves.append((dist.index_of(res.state.threshold), max(probes, default=0)))
            return res

        monkeypatch.setattr(ThresholdLadder, "g", probed)
        monkeypatch.setattr(cli, "solve_pne", solved)
        _, rows = cmd_pne(loaded)
        assert len(rows) == len(solves) == 273
        assert starts[0] == 0
        assert max(np.diff(starts + [len(widths)])) <= 2
        assert all(widest <= 2 * j + 1 for j, widest in solves), solves
        # the sweep climbs the ladder: thresholds well past the bottom rungs
        assert max(j for j, _ in solves) > 100


class TestTrueVsWeighted:
    def setup_method(self):
        dist = power_law(1, 100, 3.0)
        self.params = EpidemicParams(2.0, dist)

    def test_fixed_point_cost_gives_equal_equilibria(self):
        rep = compare_true_vs_weighted(GameSpec(self.params, prelec(0.5), math.exp(-1.0)))
        assert rep.ordering == 0
        assert rep.expected_ordering_holds
        assert rep.true_result.state.threshold == rep.weighted_result.state.threshold
        assert rep.true_result.state.fraction == pytest.approx(
            rep.weighted_result.state.fraction, abs=1e-9
        )

    def test_high_cost_weighted_vaccinates_less(self):
        rep = compare_true_vs_weighted(GameSpec(self.params, prelec(0.5), 0.9))
        assert rep.ordering <= 0
        assert rep.expected_ordering_holds

    def test_low_cost_weighted_vaccinates_more(self):
        rep = compare_true_vs_weighted(GameSpec(self.params, prelec(0.5), 0.1))
        assert rep.ordering >= 0
        assert rep.expected_ordering_holds
