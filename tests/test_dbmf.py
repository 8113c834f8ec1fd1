"""Mean-field machinery: reproduction, fixed point, dynamics, reduction."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vaxgame import (
    CandidateState,
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
from vaxgame import dbmf
from vaxgame.dbmf import NEAR_CRITICAL_R, EndemicState, TableSizeError, infected_mass, prefix_sum

from conftest import (
    bisect_endemic_v,
    count_rk4_steps,
    integrate_reference,
    random_distribution,
    random_params,
    record_root_widths,
    settle_reference,
)


UNIT_ROUNDOFF = np.finfo(float).eps / 2


def single_degree_params(k=4, delta=2.0):
    return EpidemicParams(delta, explicit({k: 1.0}))


def left_spine(n):
    """Lengths of the nodes on the left edge of numpy's pairwise-summation tree over n."""
    nodes = [n]
    while nodes[-1] > 128:
        half = nodes[-1] // 2
        nodes.append(half - half % 8)
    return nodes


class TestPrefixSum:
    SIZES = (1, 5, 8, 9, 100, 127, 128, 129, 136, 137, 255, 256, 257, 499, 4999, 8192, 8193, 80_000, 131_073, 200_000)

    def test_keeps_the_bits_of_the_zero_tailed_sum(self):
        # prefixes of 1-8 degrees, near a leaf's 128 and near each split of
        # the tree; the sum of the bare prefix misses some of these bits
        rng = np.random.default_rng(97)
        cases = plain_misses = 0
        for n in self.SIZES:
            ks = set(range(1, 9)) | set(range(120, 137))
            for node in left_spine(n):
                ks |= set(range(node - 3, node + 4))
            for k in sorted(k for k in ks if 1 <= k <= n):
                head = rng.uniform(0.0, 1.0, k) * 10.0 ** rng.uniform(-8.0, 8.0, k)
                full = np.zeros(n)
                full[:k] = head
                want = float(np.add.reduce(full)).hex()
                assert prefix_sum(head, n).hex() == want, (n, k)
                plain_misses += float(np.add.reduce(head)).hex() != want
                cases += 1
        assert cases > 500 and plain_misses > 0

    def test_an_empty_prefix_sums_to_zero(self):
        for n in (1, 200, 5000):
            assert prefix_sum(np.zeros(0), n) == 0.0

    def test_state_sums_match_the_n_wide_sums(self):
        # R, the unprotected mass and the infected mass of a threshold state
        # and of a random state with a zero tail, over their prefixes
        dist = power_law(1, 5000, 3.0)
        params = EpidemicParams(2.0, dist)
        d = dist.float_degrees
        rng = np.random.default_rng(5)
        for t in (1, 7, 64, 129, 300, 2499, 2500, 5000):
            k = dist.index_of(t) + 1
            tail = np.where(np.arange(dist.size) < k, rng.uniform(0.0, 1.0, dist.size), 0.0)
            for state in (CandidateState(dist, t, 0.5 * dist.mass_of(t)), SocialState(dist, tail * dist.mass)):
                x = state.unprotected
                assert state.prefix.size == k
                assert state.unprotected_mass.hex() == float(x.sum()).hex()
                r = float(np.sum(d * d * x[None, :], axis=1)[0]) / (params.delta * dist.mean_degree)
                assert reproduction(params, state).hex() == r.hex()
                v = float(rng.uniform(0.0, 1.0))
                infected = float(np.sum(x * (d * v / (params.delta + d * v))))
                assert infected_mass(params, state, v).hex() == infected.hex()


class TestReproduction:
    def test_all_vaccinated_is_zero(self):
        params = single_degree_params()
        assert reproduction(params, SocialState(params.distribution, np.zeros(params.distribution.size))) == 0.0

    def test_all_unprotected_moment_ratio(self):
        dist = power_law(1, 60, 2.5)
        params = EpidemicParams(1.7, dist)
        r = reproduction(params, SocialState(dist, dist.mass))
        assert r == pytest.approx(dist.second_moment / (1.7 * dist.mean_degree), abs=1e-12)

    def test_single_degree_hand_value(self):
        params = single_degree_params()
        # 16 / (2 * 4) = 2
        assert reproduction(params, SocialState(params.distribution, params.distribution.mass)) == 2.0

    def test_mismatched_distribution(self):
        params = single_degree_params()
        other = explicit({5: 1.0})
        with pytest.raises(ConsistencyError):
            reproduction(params, SocialState(other, other.mass))


class TestEndemicState:
    def test_subcritical_returns_disease_free(self):
        dist = explicit({2: 1.0})
        params = EpidemicParams(5.0, dist)  # R = 4/10 < 1
        es = endemic_state(params, SocialState(dist, dist.mass))
        assert es.v == 0.0 and np.all(es.p == 0.0) and not es.endemic

    def test_single_degree_closed_form(self):
        params = single_degree_params()
        es = endemic_state(params, SocialState(params.distribution, params.distribution.mass))
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
            es = endemic_state(params, SocialState(dist, dist.mass))
            assert np.all(np.diff(es.p) >= -1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        d_min=st.integers(1, 3),
        d_max=st.integers(5, 400),
        beta=st.floats(2.05, 3.5),
        delta_ratio=st.floats(0.005, 0.9999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_residual_state_is_critical(self, d_min, d_max, beta, delta_ratio, seed):
        # at the fixed point the state x*(1 - p) has R = g(v) + 1 = 1, since
        # 1 - p_d = delta/(delta + d*v)
        dist = power_law(d_min, d_max, beta)
        params = EpidemicParams(delta_ratio * dist.second_moment / dist.mean_degree, dist)
        x = np.random.default_rng(seed).uniform(size=dist.size) * dist.mass
        es = endemic_state(params, SocialState(dist, x))
        assume(es.v > 0.0)
        residual = x * (1.0 - es.p)
        d = dist.float_degrees
        terms = d * d * residual / (params.delta * dist.mean_degree)
        # the root's own |g(v)|, then gamma_k*sum|terms| for the rounding of
        # g and of R, with the error of 1 - p_d amplified by p_d/(1 - p_d) = d*v/delta
        k = dist.size + 6
        gamma = k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)
        bound = es.residual + gamma * float(np.sum(terms * (2.0 + d * es.v / params.delta)))
        assert abs(reproduction(params, SocialState(dist, residual)) - 1.0) <= bound

    def test_near_critical_flag(self):
        dist = explicit({2: 1.0})
        # R = 4 x / (2 delta) = 1 + 5e-13 at x = 1
        delta = 2.0 / (1.0 + 0.5 * NEAR_CRITICAL_R)
        params = EpidemicParams(delta, dist)
        es = endemic_state(params, SocialState(dist, dist.mass))
        assert es.v == 0.0 and es.degenerate

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        dist = random_distribution(rng, max_degrees=5)
        params = random_params(rng, dist)
        states = rng.uniform(0.0, 1.0, size=(30, dist.size)) * dist.mass
        vs = batch_endemic_v(params, states)
        for row, v in zip(states, vs):
            assert v == pytest.approx(endemic_state(params, SocialState(dist, row)).v, abs=1e-10)

    def test_batch_and_scalar_agree_at_the_criticality_margin(self):
        # R within a few ulps of 1 + NEAR_CRITICAL_R, where a sum over a
        # prefix and a sum over every degree can round to different sides
        rng = np.random.default_rng(31)
        for _ in range(500):
            n = int(rng.integers(2, 41))
            dist = power_law(1, n, float(rng.uniform(2.0, 3.0)))
            j = int(rng.integers(0, n))
            state = CandidateState(dist, int(dist.degrees[j]), float(rng.uniform(0.05, 1.0) * dist.mass[j]))
            d = dist.float_degrees
            r = (1.0 + NEAR_CRITICAL_R) * (1.0 + int(rng.integers(-8, 9)) * 2.2e-16)
            params = EpidemicParams(float(np.sum(d * d * state.unprotected)) / (dist.mean_degree * r), dist)
            v = endemic_state(params, state).v
            assert batch_endemic_v(params, state.unprotected[None, :])[0] == v
            # a wider row widens the batch's root solve, not its criticality test
            wide = batch_endemic_v(params, np.vstack([state.unprotected, dist.mass]))
            assert (wide[0] > 0.0) == (v > 0.0)

    def test_batch_exhaustion_raises_with_best_iterate(self, monkeypatch):
        rng = np.random.default_rng(13)
        dist = random_distribution(rng, max_degrees=5)
        params = random_params(rng, dist)
        states = rng.uniform(0.5, 1.0, size=(8, dist.size)) * dist.mass
        states[3] = 0.0
        roots = batch_endemic_v(params, states)
        active = roots > 0.0
        assert not active[3] and active.sum() == 7
        monkeypatch.setattr(dbmf, "NEWTON_MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as info:
            batch_endemic_v(params, states)
        best = info.value.best
        assert best.shape == roots.shape and np.all(best[~active] == 0.0)
        # monotone Newton: every iterate lies strictly between 0 and the root
        assert np.all(best[active] > 0.0) and np.all(best[active] < roots[active])
        assert info.value.residual > 1e-12

    def test_returned_residual_meets_tol(self, monkeypatch):
        # 1e-17 is below the rounding of g: a solve returns only where g
        # rounds to exactly zero, and raises otherwise
        monkeypatch.setattr(dbmf, "ROOT_TOL", 1e-17)
        rng = np.random.default_rng(3)
        outcomes = set()
        for _ in range(30):
            dist = random_distribution(rng)
            params = random_params(rng, dist)
            state = SocialState(dist, rng.uniform(0.5, 1.0, dist.size) * dist.mass)
            try:
                assert endemic_state(params, state).residual <= 1e-17
                outcomes.add("returned")
            except ConvergenceError as exc:
                assert exc.residual > 1e-17
                outcomes.add("raised")
        assert outcomes == {"returned", "raised"}

    def test_scalar_exhaustion_raises_with_best_iterate(self, monkeypatch):
        dist = power_law(1, 100, 3.0)
        params = EpidemicParams(2.0, dist)
        state = SocialState(dist, dist.mass)
        root = endemic_state(params, state).v
        monkeypatch.setattr(dbmf, "NEWTON_MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as info:
            endemic_state(params, state)
        best = info.value.best
        assert isinstance(best, EndemicState) and 0.0 < best.v < root
        assert best.residual == info.value.residual > 1e-12

    @pytest.mark.parametrize(
        "rows",
        [
            lambda m: np.full((2, 1), 0.1),  # broadcast to every degree before
            lambda m: np.full((2, m.size + 1), 0.1),
            lambda m: np.ones((2, 2, m.size)) * m,
            lambda m: -m[None, :],  # returned v = 0 before
            lambda m: np.where(np.arange(m.size) == 2, -1e-12, m)[None, :],
            lambda m: (m * (1.0 + 1e-9))[None, :],
            lambda m: np.where(np.arange(m.size) == 2, np.nan, m)[None, :],
        ],
        ids=["width-1", "width+1", "3-d", "negative", "slightly-negative", "above-m_d", "nan"],
    )
    def test_rejects_malformed_rows(self, rows):
        dist = power_law(1, 5, 3.0)
        params = EpidemicParams(1.0, dist)
        x = rows(dist.mass)
        with pytest.raises(ValueError):
            batch_endemic_v(params, x)
        if x.ndim == 2:
            # endemic_state takes a SocialState, which applies the same rule
            with pytest.raises(ValueError):
                SocialState(dist, x[0])

    def test_accepts_roundoff_slack(self):
        dist = power_law(1, 5, 3.0)
        params = EpidemicParams(1.0, dist)
        x = dist.mass * (1.0 + 1e-16)
        x[0] = -1e-16
        assert batch_endemic_v(params, x)[0] == pytest.approx(
            endemic_state(params, SocialState(dist, x)).v, rel=1e-12
        )


def assert_matches_oracle(params, unprotected):
    """Both entry points agree with the bisection oracle on every row.

    Tolerance: the kernel stops once its next step is at most 1e-13*v, and
    where g is flat near R = 1 the root is fixed only to within the
    rounding of g (a few 1e-16) over the slope |g'(v)|.
    """
    x = np.atleast_2d(unprotected)
    dist = params.distribution
    oracle = bisect_endemic_v(params, x)
    d = dist.degrees.astype(float)
    coeff = x * d * d / dist.mean_degree
    slope = np.sum(coeff * d / (params.delta + np.outer(oracle, d)) ** 2, axis=1)
    with np.errstate(divide="ignore"):
        atol = 2e-13 * oracle + 1e-14 / slope
    batch = batch_endemic_v(params, x)
    scalar = np.array([endemic_state(params, SocialState(dist, row)).v for row in x])
    for v in (batch, scalar):
        assert np.all(np.abs(v - oracle) <= atol), np.max(np.abs(v - oracle) / atol)


class TestRootOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            dist = random_distribution(rng)
            params = random_params(rng, dist, lo=0.2, hi=1.2)
            states = rng.uniform(0.0, 1.0, size=(20, dist.size)) * dist.mass
            assert_matches_oracle(params, states)

    @pytest.mark.parametrize("excess", [1e-9, 1e-6])
    @pytest.mark.parametrize("d_max", [5, 100, 1000])
    def test_near_critical(self, d_max, excess):
        # all unprotected at R = 1 + excess
        dist = power_law(1, d_max, 3.0)
        params = EpidemicParams(dist.second_moment / dist.mean_degree / (1.0 + excess), dist)
        r = reproduction(params, SocialState(dist, dist.mass))
        assert r - 1.0 == pytest.approx(excess, rel=1e-6)
        assert_matches_oracle(params, dist.mass)

    @pytest.mark.parametrize("d_max", [5, 100, 1000])
    def test_delta_near_moment_ratio(self, d_max):
        dist = power_law(1, d_max, 3.0)
        params = EpidemicParams(0.999 * dist.second_moment / dist.mean_degree, dist)
        assert_matches_oracle(params, dist.mass)

    def test_full_thresholds_at_d_max_1e4(self):
        # 60 thresholds, log-spaced over 10^4 degrees, the first ones subcritical
        dist = power_law(1, 10_000, 3.0)
        params = EpidemicParams(2.0, dist)
        idx = np.unique(np.geomspace(1, dist.size, 60).astype(int)) - 1
        states = np.zeros((idx.size, dist.size))
        for row, j in enumerate(idx):
            states[row, : j + 1] = dist.mass[: j + 1]
        assert 0.0 == batch_endemic_v(params, states)[0] < batch_endemic_v(params, states)[-1]
        assert_matches_oracle(params, states)

    def test_mixed_supports(self, monkeypatch):
        # rows end at different degrees, one at d_max; some have zeros below
        # their top degree, and one carries only 1e-300 there
        dist = power_law(1, 200, 3.0)
        params = EpidemicParams(2.0, dist)
        m, n = dist.mass, dist.size
        tops = [60, n - 1, 120, 30, 150]
        rows = np.zeros((len(tops), n))
        for row, top in zip(rows, tops):
            row[: top + 1] = m[: top + 1]
        rows[2, 1:120:3] = 0.0
        rows[3, 30] *= 0.5
        rows[4, 41:150] = 0.0
        rows[4, 150] = 1e-300
        assert np.all(batch_endemic_v(params, rows) > 0.0)
        widths = record_root_widths(monkeypatch)
        assert_matches_oracle(params, rows)
        # the batch solves on its widest row, each scalar solve on its own
        assert widths == [n] + [top + 1 for top in tops]
        widths.clear()
        short = np.delete(rows, 1, axis=0)
        assert_matches_oracle(params, short)
        assert widths[0] == 151

    def test_all_subcritical_batch(self):
        dist = power_law(1, 200, 3.0)
        params = EpidemicParams(2.0, dist)
        rows = np.zeros((3, dist.size))
        rows[1, :5] = dist.mass[:5]
        rows[2, 0] = 0.5 * dist.mass[0]
        assert reproduction(params, SocialState(dist, rows[1])) < 1.0
        assert np.all(batch_endemic_v(params, rows) == 0.0)
        assert np.all(batch_endemic_v(params, rows[:1]) == 0.0)
        assert_matches_oracle(params, rows)

    def test_single_degree_closed_form(self):
        # kx/(delta + kv) = 1 gives v = x - delta/k
        params = single_degree_params(k=4, delta=2.0)
        x = np.linspace(0.0, 1.0, 41)[:, None]
        closed = np.maximum(x[:, 0] - 0.5, 0.0)
        for v in (bisect_endemic_v(params, x), batch_endemic_v(params, x)):
            np.testing.assert_allclose(v, closed, rtol=2e-13, atol=1e-16)
        assert_matches_oracle(params, x)


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
            s1 = CandidateState(dist, int(dist.degrees[j1]), f1)
            s2 = CandidateState(dist, int(dist.degrees[j2]), f2)
            v1 = endemic_state(params, s1).v
            v2 = endemic_state(params, s2).v
            assert v1 <= v2 + 1e-12
            if v2 > 1e-6:
                assert v1 < v2


class TestDynamics:
    def test_zero_initial_condition_stays_zero(self):
        dist = power_law(1, 15, 2.5)
        params = EpidemicParams(1.0, dist)
        traj = integrate_dbmf(params, SocialState(dist, dist.mass), 0.0, 5.0)
        assert np.max(np.abs(traj.probabilities)) == 0.0

    def test_subcritical_decay(self):
        dist = explicit({1: 0.6, 3: 0.4})
        params = EpidemicParams(4.0, dist)
        state = SocialState(dist, dist.mass)
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
        traj = integrate_dbmf(params, SocialState(dist, dist.mass), 1.0, 10.0)
        assert np.all(traj.probabilities >= 0.0) and np.all(traj.probabilities <= 1.0)

    def test_oversized_step_raises(self):
        dist = explicit({20: 1.0})
        params = EpidemicParams(0.5, dist)
        with pytest.raises(IntegrationError):
            integrate_dbmf(params, SocialState(dist, dist.mass), 0.9, 50.0, dt=1.0)

    def test_input_validation(self):
        params = single_degree_params()
        state = SocialState(params.distribution, params.distribution.mass)
        with pytest.raises(ValueError):
            integrate_dbmf(params, state, 1.5, 1.0)
        with pytest.raises(ValueError):
            integrate_dbmf(params, state, 0.5, -1.0)
        with pytest.raises(ValueError):
            integrate_dbmf(params, state, 0.5, 1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate_dbmf(params, state, 0.5, np.inf)
        with pytest.raises(ValueError):
            integrate_dbmf(params, state, 0.5, 1.0, dt=np.inf)
        with pytest.raises(ValueError, match="p0"):
            integrate_dbmf(params, state, np.nan, 1.0)
        # 2.5 sampled every 5th step before; the row count needs an integer
        for stride in (2.5, 2.0, 0, -1, "2"):
            with pytest.raises(ValueError, match="sample_stride"):
                integrate_dbmf(params, state, 0.5, 1.0, dt=0.1, sample_stride=stride)

    def test_oversized_table_is_refused_before_any_step(self, monkeypatch):
        params = single_degree_params()
        state = SocialState(params.distribution, params.distribution.mass)

        def no_step(*args):
            raise AssertionError("stepped before the size check")

        monkeypatch.setattr(dbmf, "_ode_rhs", no_step)
        # 10^8 steps of 2 floats: 1.5 GiB
        with pytest.raises(ValueError, match=r"100,000,001 x 2 floats needs 1\.5 GiB"):
            integrate_dbmf(params, state, 0.5, 1.0, dt=1e-8)

    def test_step_count_past_the_float_range_is_refused_before_any_step(self, monkeypatch):
        params = single_degree_params()
        state = SocialState(params.distribution, params.distribution.mass)

        def no_step(*args):
            raise AssertionError("stepped before the size check")

        monkeypatch.setattr(dbmf, "_ode_rhs", no_step)
        # t_end/dt = 1e310 is inf: int(round(...)) raised OverflowError before
        with pytest.raises(TableSizeError, match=r"t_end/dt = 1e\+10/1e-300 steps, past the float range"):
            integrate_dbmf(params, state, 0.5, 1e10, dt=1e-300)

    @pytest.mark.parametrize("p0", [[0.3] * 3, [0.3] * 11, [0.3], [[0.3] * 10]], ids=["3", "11", "1", "nested"])
    def test_p0_needs_one_value_per_degree(self, p0):
        # 3 and 11 entries failed to broadcast before; [0.3] was spread over all 10 degrees
        params = EpidemicParams(2.0, power_law(1, 10, 3.0))
        state = SocialState(params.distribution, params.distribution.mass)
        with pytest.raises(ValueError, match="p0 must be a number or one value per degree"):
            integrate_dbmf(params, state, p0, 1.0)
        with pytest.raises(ValueError, match="p0 must be a number or one value per degree"):
            settle_dbmf(params, state, p0=p0)
        traj = integrate_dbmf(params, state, np.linspace(0.1, 0.9, 10), 0.1)
        np.testing.assert_array_equal(traj.table[0, 1:], np.linspace(0.1, 0.9, 10))

    def test_trajectory_is_one_table(self):
        params = EpidemicParams(2.0, power_law(1, 10, 3.0))
        state = SocialState(params.distribution, params.distribution.mass)
        traj = integrate_dbmf(params, state, 0.5, 0.7, sample_stride=3)
        # 140 steps of 0.005: every 3rd, then the last
        steps = [*range(0, 140, 3), 140]
        assert traj.table.shape == (len(steps), 11)
        for view in (traj.times, traj.probabilities, traj.final):
            assert np.shares_memory(view, traj.table)
        np.testing.assert_array_equal(traj.table[:, 0], [k * 0.005 for k in steps])
        every = integrate_dbmf(params, state, 0.5, 0.7)
        np.testing.assert_array_equal(traj.final, every.table[-1, 1:])

    def test_stride_that_does_not_divide_the_steps(self):
        params = single_degree_params()
        state = SocialState(params.distribution, params.distribution.mass)
        traj = integrate_dbmf(params, state, 0.5, 5.0, dt=0.1, sample_stride=7)
        # 50 steps: every 7th, then the last
        steps = [0, 7, 14, 21, 28, 35, 42, 49, 50]
        np.testing.assert_array_equal(traj.times, [k * 0.1 for k in steps])
        every = integrate_dbmf(params, state, 0.5, 5.0, dt=0.1)
        assert every.probabilities.shape == (51, 1)
        np.testing.assert_array_equal(traj.probabilities, every.probabilities[steps])
        divides = integrate_dbmf(params, state, 0.5, 5.0, dt=0.1, sample_stride=np.int64(10))
        np.testing.assert_array_equal(divides.times, [k * 0.1 for k in range(0, 51, 10)])

    @pytest.mark.parametrize(
        "steps, stride, rows",
        [(62, 1, 63), (63, 1, 64), (64, 1, 65), (127, 1, 128), (128, 1, 129), (190, 3, 65)],
    )
    def test_sink_blocks_are_the_table(self, steps, stride, rows):
        params = EpidemicParams(2.0, power_law(1, 10, 3.0))
        state = SocialState(params.distribution, params.distribution.mass)
        dt = 2.0**-8  # steps * dt is exact
        table = integrate_dbmf(params, state, 0.5, steps * dt, dt, stride).table
        assert len(table) == rows
        blocks = []
        # the sink's block is a reused buffer, so it is copied
        assert integrate_dbmf(params, state, 0.5, steps * dt, dt, stride, lambda b: blocks.append(b.copy())) is None
        assert [len(b) for b in blocks[:-1]] == [dbmf.BLOCK_ROWS] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= dbmf.BLOCK_ROWS
        assert np.concatenate(blocks).tobytes() == table.tobytes()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -0.01},
            {"dt": np.inf},
            {"p0": 1.5},
            {"p0": np.nan},
        ],
    )
    def test_settle_input_validation(self, kwargs):
        params = single_degree_params()
        with pytest.raises(ValueError):
            settle_dbmf(params, SocialState(params.distribution, params.distribution.mass), **kwargs)

    def test_settle_horizon_exhausted(self, monkeypatch):
        # rate-2 approach to p = 0.5 from 0.05: three time units leave
        # successive samples far more than SETTLE_TOL apart
        monkeypatch.setattr(dbmf, "SETTLE_T_MAX", 3.0)
        params = single_degree_params()
        state = SocialState(params.distribution, params.distribution.mass)
        with pytest.raises(ConvergenceError) as info:
            settle_dbmf(params, state, p0=0.05, dt=0.25)
        best = info.value.best
        assert np.all((best >= 0.0) & (best <= 1.0))
        # the last iterate: twelve steps, none clipped
        np.testing.assert_array_equal(best, integrate_dbmf(params, state, 0.05, 3.0, dt=0.25).final)
        assert info.value.residual > dbmf.SETTLE_TOL

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

    def test_stiff_power_law_settles(self, monkeypatch):
        # d_max * v is large here; a 0.01/delta step overflows
        dist = power_law(1, 300, 3.0)
        params = EpidemicParams(0.5, dist)
        state = SocialState(dist, dist.mass)
        rk4_steps = count_rk4_steps(monkeypatch)
        p = settle_dbmf(params, state)
        np.testing.assert_allclose(p, endemic_state(params, state).p, rtol=0, atol=1e-6)
        # a step budget, not a wall-clock bound: 25 unit-time chunks of 200 steps
        assert rk4_steps() <= 5_100

    def test_default_step_within_monotone_interval(self):
        # a delta-dominated decaying state (R about 0.043): the -delta modes
        # orthogonal to q_hat have mixed signs and decay fastest
        dist = DegreeDistribution([2, 11, 21, 25], [0.396, 0.403, 0.070, 0.131])
        params = EpidemicParams(22.3, dist)
        state = SocialState(dist, np.array([0.47, 0.02, 0.12, 0.05]) * dist.mass)
        assert reproduction(params, state) < 0.05
        assert np.max(settle_dbmf(params, state, p0=1.0)) < 1e-6
        # 2.1/(delta + d_max*s) puts z = dt*lambda past -1.596, the turning
        # point of RK4's stability polynomial, so the fast modes outlive the
        # slow one and drive p below zero
        dt = 2.1 / (params.delta + dist.d_max * state.neighbor_weights().sum())
        with pytest.raises(IntegrationError):
            settle_dbmf(params, state, p0=1.0, dt=dt)

    def test_unstable_step_fails_fast(self):
        # the same instance with the unscaled 0.01/delta step is unstable:
        # the iterate swings to about 1e4, which the clip would hide while
        # the loop ran all of t_max
        dist = power_law(1, 300, 3.0)
        params = EpidemicParams(0.5, dist)
        state = SocialState(dist, dist.mass)
        start = time.perf_counter()
        with pytest.raises(IntegrationError):
            settle_dbmf(params, state, dt=0.01 / params.delta)
        assert time.perf_counter() - start < 10.0

    def test_nan_iterate_raises(self):
        # NaN compares false both ways, so a range test written as two
        # "outside" checks would let it through
        params = single_degree_params()
        state = SocialState(params.distribution, params.distribution.mass)
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
        p0=st.floats(0.05, 1.0),
    )
    def test_settle_matches_fixed_point_property(self, degrees, data, delta_ratio, p0):
        n = len(degrees)
        mass = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        dist = DegreeDistribution(sorted(degrees), mass / mass.sum())
        share = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        params = EpidemicParams(delta_ratio * dist.second_moment / dist.mean_degree, dist)
        state = SocialState(dist, share * dist.mass)
        r = reproduction(params, state)
        # the approach to the fixed point slows to a crawl at R = 1
        assume(abs(r - 1.0) >= 0.1)
        p = settle_dbmf(params, state, p0=p0)
        np.testing.assert_allclose(p, endemic_state(params, state).p, rtol=0, atol=1e-6)


def _drawn_instance(data, degrees, delta_ratio, share_floor=0.0):
    """Distribution, params and state with random mass and unprotected shares over ``degrees``."""
    n = len(degrees)
    mass = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    dist = DegreeDistribution(sorted(degrees), mass / mass.sum())
    share = np.array(data.draw(st.lists(st.floats(share_floor, 1.0), min_size=n, max_size=n)))
    params = EpidemicParams(delta_ratio * dist.second_moment / dist.mean_degree, dist)
    return params, SocialState(dist, share * dist.mass)


def _drawn_p0(data, n):
    """A number, or one value per degree."""
    return data.draw(st.floats(0.0, 1.0) | st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))


class TestInPlaceKernel:
    """The in-place RK4 kernel gives the bits of the allocating step it replaced."""

    @pytest.mark.parametrize("streamed", [False, True], ids=["table", "sink"])
    @pytest.mark.parametrize("stride", [1, 2, 3, 7, 100])
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True),
        data=st.data(),
        delta_ratio=st.floats(0.2, 1.5),
        step_share=st.floats(0.3, 1.0),
        steps=st.integers(1, 600),
    )
    def test_trajectory_is_the_reference_bit_for_bit(
        self, stride, streamed, degrees, data, delta_ratio, step_share, steps
    ):
        params, state = _drawn_instance(data, degrees, delta_ratio)
        p0 = _drawn_p0(data, len(degrees))
        s = state.neighbor_weights().sum()
        dt = step_share * min(0.01 / params.delta, dbmf.STABLE_STEP / (params.delta + params.distribution.d_max * s))
        # up to 600 steps: nine 64-row blocks at stride 1, three at stride 3
        expected = integrate_reference(params, state, p0, steps * dt, dt, stride)
        if streamed:
            blocks = []
            assert integrate_dbmf(params, state, p0, steps * dt, dt, stride, lambda b: blocks.append(b.copy())) is None
            table = np.concatenate(blocks)
        else:
            table = integrate_dbmf(params, state, p0, steps * dt, dt, stride).table
        assert table.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.lists(st.integers(1, 30), min_size=1, max_size=8, unique=True),
        data=st.data(),
        delta_ratio=st.floats(0.2, 1.5),
    )
    def test_full_support_settle_is_the_reference_bit_for_bit(self, degrees, data, delta_ratio):
        params, state = _drawn_instance(data, degrees, delta_ratio, share_floor=0.05)
        # the approach to the fixed point slows to a crawl at R = 1
        assume(abs(reproduction(params, state) - 1.0) >= 0.05)
        p0 = _drawn_p0(data, len(degrees))
        assert settle_dbmf(params, state, p0).tobytes() == settle_reference(params, state, p0).tobytes()


class TestSettleSupport:
    """settle_dbmf steps only the degrees with unprotected mass and rebuilds the rest."""

    def test_everyone_vaccinated_settles_to_zero(self):
        params = EpidemicParams(2.0, power_law(1, 50, 3.0))
        state = SocialState(params.distribution, np.zeros(params.distribution.size))
        with np.errstate(all="raise"):
            for p0 in (0.0, 0.7, np.linspace(0.0, 1.0, 50)):
                p = settle_dbmf(params, state, p0=p0)
                assert p.shape == (50,) and p.tobytes() == np.zeros(50).tobytes()
        # p0 and a caller's dt are still checked
        with pytest.raises(ValueError, match="p0"):
            settle_dbmf(params, state, p0=1.5)
        with pytest.raises(ValueError, match="dt"):
            settle_dbmf(params, state, dt=0.0)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        degrees=st.lists(st.integers(1, 30), min_size=2, max_size=8, unique=True),
        data=st.data(),
        delta_ratio=st.floats(0.2, 1.5),
    )
    def test_gapped_support_matches_fixed_point_and_dense_settle(self, degrees, data, delta_ratio):
        params, state = _drawn_instance(data, degrees, delta_ratio)
        n = len(degrees)
        vaccinated = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        assume(vaccinated.any())
        state = SocialState(params.distribution, np.where(vaccinated, 0.0, state.unprotected))
        # the approach to the fixed point slows to a crawl at R = 1
        assume(abs(reproduction(params, state) - 1.0) >= 0.1)
        p0 = _drawn_p0(data, n)
        p = settle_dbmf(params, state, p0)
        theta = float(np.add.reduce(state.neighbor_weights() * p))
        assert abs(theta - endemic_state(params, state).v) <= 1e-9
        np.testing.assert_allclose(p, settle_reference(params, state, p0), rtol=0, atol=1e-9)

    def test_threshold_state_settles_at_scale(self, monkeypatch):
        # the dense settle stepped all 80,000 degrees at 1.5/(delta + d_max*s):
        # 2.7 s at 1,000 degrees, and out of reach here
        dist = power_law(1, 80_000, 3.0)
        params = EpidemicParams(2.0, dist)
        state = CandidateState(dist, 20)
        work = count_rk4_steps(monkeypatch, per_degree=True)
        p = settle_dbmf(params, state)
        es = endemic_state(params, state)
        # a budget of steps x width, not a clock: 1,666 steps x 20 degrees =
        # 33,320 when written, held to 1.5 times that
        assert work() <= 50_000
        assert abs(float(np.add.reduce(state.neighbor_weights() * p)) - es.v) <= 1e-9
        np.testing.assert_allclose(p, es.p, rtol=0, atol=1e-9)


class TestNimfaReduction:
    def test_all_vaccinated_zero_matrix(self):
        params = single_degree_params()
        red = nimfa_reduction(params, SocialState(params.distribution, np.zeros(params.distribution.size)))
        assert np.all(red.adjacency == 0.0)
        assert red.spectral_radius == 0.0 == red.reproduction

    def test_single_degree_hand_value(self):
        params = single_degree_params()
        red = nimfa_reduction(params, SocialState(params.distribution, params.distribution.mass))
        # q_hat_4 = 4*1/4 = 1, adjacency [[4]], radius 4/2 = 2
        assert red.adjacency.shape == (1, 1) and red.adjacency[0, 0] == 4.0
        assert red.spectral_radius == pytest.approx(2.0, abs=1e-12)

    def test_sweep_instance_radius(self):
        dist = power_law(1, 100, 3.0)
        params = EpidemicParams(2.0, dist)
        red = nimfa_reduction(params, SocialState(dist, dist.mass))
        expected = dist.second_moment / (2.0 * dist.mean_degree)
        assert red.spectral_radius == pytest.approx(expected, abs=1e-10)

    def test_refuses_large_degree_sets_before_allocating(self):
        dist = power_law(1, 5000, 3.0)
        params = EpidemicParams(2.0, dist)
        state = SocialState(dist, dist.mass)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n = 5,000, over the cap of 4,096"):
                nimfa_reduction(params, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 5,000 x 5,000 adjacency would take 200 MB
        assert peak < 1_000_000, peak

    def test_radius_equals_reproduction_on_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            dist = random_distribution(rng)
            params = random_params(rng, dist)
            state = SocialState(dist, rng.uniform(0.0, 1.0, dist.size) * dist.mass)
            red = nimfa_reduction(params, state)
            assert red.spectral_radius == pytest.approx(red.reproduction, abs=1e-10)
