"""Acceptance suite: one pass/fail line per criterion (run pytest -s to see).

Each criterion is exercised at its stated tolerance.  On the exponent-3
sweep instance, 5a(i) holds the low-cost weighted thresholds within one
degree of the true threshold scaled by the ratio (1-c)/(1-w^{-1}(c)),
with the ordering around the perception fixed point 1/e and a grid
oracle wherever the two thresholds differ by more than one; 5c holds the
planner to the closed-form eradication boundary and to a grid oracle.
Both replace reported claims that the solved model contradicts
(thresholds agreeing within one degree for c <= 0.5, and an optimal
threshold of one); README.md keeps the record.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from vaxgame import (
    CandidateState,
    EpidemicParams,
    GameSpec,
    PowerLawBoundContext,
    SocialOptimumSolver,
    SocialState,
    ThresholdLadder,
    compare_candidates,
    endemic_odds,
    endemic_state,
    explicit,
    identity,
    inefficiency,
    odds_lower_bound,
    odds_upper_bound,
    nimfa_reduction,
    power_law,
    prelec,
    ratio_sandwich,
    reproduction,
    settle_dbmf,
    social_cost,
    solve_pne,
    threshold_upper_bound,
    verify_inverse_s_shape,
    verify_pne,
    weight,
    weight_inverse,
)
from vaxgame.cli import main as cli_main

from conftest import (
    brute_force_pne,
    brute_force_social_optimum,
    eradication_boundary,
    random_distribution,
    random_params,
    states_within_one_step,
    walk_pne,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SWEEP_COSTS = [float(c) for c in np.linspace(0.05, 0.95, 19)]


def report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" | {detail}" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def sweep_instance():
    dist = power_law(1, 100, 3.0)
    params = EpidemicParams(2.0, dist)
    return params, ThresholdLadder(params)


@pytest.fixture(scope="module")
def sweep_table(sweep_instance):
    """Equilibria of the exponent-3 sweep for identity and both alphas."""
    params, ladder = sweep_instance
    table = {}
    for label, w in (("identity", identity()), ("a075", prelec(0.75)), ("a05", prelec(0.5))):
        rows = []
        for c in SWEEP_COSTS:
            spec = GameSpec(params, w, c)
            res = solve_pne(spec, ladder=ladder)
            assert verify_pne(spec, res.state).passed
            rows.append(res)
        table[label] = rows
    return table


def test_criterion_1_fixed_point_and_dynamics():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_residual = 0.0
    worst_ode_gap = 0.0
    endemic_count = 0
    # samples stay clear of criticality so the dynamics settle quickly;
    # the fixed-point residual check needs no such margin
    while endemic_count < 200:
        dist = random_distribution(rng, max_degrees=6, degree_pool=30)
        params = random_params(rng, dist, lo=0.2, hi=0.9)
        state = SocialState(dist, rng.uniform(0.2, 1.0, dist.size) * dist.mass)
        if reproduction(params, state) < 1.1:
            continue
        es = endemic_state(params, state)
        worst_residual = max(worst_residual, es.residual)
        settled = settle_dbmf(params, state, p0=0.5)
        v_ode = float(np.dot(state.neighbor_weights(), settled))
        worst_ode_gap = max(worst_ode_gap, abs(v_ode - es.v))
        endemic_count += 1

    worst_decay = 0.0
    decay_count = 0
    while decay_count < 40:
        dist = random_distribution(rng, max_degrees=6, degree_pool=30)
        params = random_params(rng, dist, lo=0.2, hi=0.95)
        state = SocialState(dist, rng.uniform(0.1, 1.0, dist.size) * dist.mass)
        if reproduction(params, state) > 0.9:
            continue
        settled = settle_dbmf(params, state, p0=float(rng.uniform(0.2, 0.95)))
        worst_decay = max(worst_decay, float(np.max(settled)))
        decay_count += 1

    elapsed = time.perf_counter() - start
    ok = (
        worst_residual <= 1e-10
        and worst_ode_gap <= 1e-6
        and worst_decay < 1e-6
        and elapsed < 60.0
    )
    assert report(
        "criterion 1: endemic fixed point vs dynamics",
        ok,
        f"residual {worst_residual:.2e}, ode gap {worst_ode_gap:.2e}, "
        f"decay {worst_decay:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_rank_one_reduction():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        dist = random_distribution(rng, max_degrees=8, degree_pool=40)
        params = random_params(rng, dist, lo=0.2, hi=1.0)
        state = SocialState(dist, rng.uniform(0.0, 1.0, dist.size) * dist.mass)
        red = nimfa_reduction(params, state)
        worst = max(worst, abs(red.spectral_radius - red.reproduction))
    assert report(
        "criterion 2: degree-class reduction spectral radius", worst <= 1e-10, f"max |rho - R| {worst:.2e}"
    )


def test_criterion_3_brute_force_equivalence():
    rng = np.random.default_rng(7)
    all_match = True
    all_unique = True
    for _ in range(50):
        dist = random_distribution(rng, max_degrees=3, degree_pool=12)
        params = random_params(rng, dist)
        w = identity() if rng.random() < 1 / 3 else prelec(float(rng.uniform(0.3, 0.95)))
        spec = GameSpec(params, w, float(rng.uniform(0.05, 0.9)))
        res = solve_pne(spec)
        all_unique &= walk_pne(spec)[1] == 1
        t, f, _ = brute_force_pne(spec, grid=1000)
        all_match &= states_within_one_step(
            dist, (t, f), (res.state.threshold, res.state.fraction)
        )
    assert report(
        "criterion 3: solver vs best-response grid oracle",
        all_match and all_unique,
        f"match {all_match}, unique window {all_unique}",
    )


def test_criterion_4_single_degree_closed_form():
    params = EpidemicParams(2.0, explicit({4: 1.0}))
    res = solve_pne(GameSpec(params, identity(), 1.0 / 3.0))
    ok = (
        res.state.threshold == 4
        and abs(res.state.fraction - 0.75) <= 1e-9
        and abs(res.v - 0.25) <= 1e-9
    )
    assert report(
        "criterion 4: single-degree closed form",
        ok,
        f"threshold {res.state.threshold}, f {res.state.fraction:.12f}, v {res.v:.12f}",
    )


def _threshold_row(table, label):
    return [r.state.threshold for r in table[label]]


def test_criterion_5a_low_cost_thresholds_agree_within_one(sweep_instance, sweep_table):
    # The reference is the true threshold scaled by theta(c) =
    # (1-c)/(1-w^{-1}(c)), the ratio the exponent-3 sandwich pins.  This
    # instance has d_min = 1, where the sandwich's lower side is vacuous
    # (ratio_sandwich refuses it), so the theta check tests the paper's
    # ratio on this instance; it is not a theorem here.  The ordering
    # around 1/e and the grid oracle are what the model guarantees.
    params, _ = sweep_instance
    pivot = math.exp(-1.0)
    ok = True
    worst_dev = 0.0
    rows = []
    for label, alpha in (("a075", 0.75), ("a05", 0.5)):
        w = prelec(alpha)
        for c, res_t, res_w in zip(SWEEP_COSTS, sweep_table["identity"], sweep_table[label]):
            if c > 0.5 + 1e-12:
                continue
            dt, dw = res_t.state.threshold, res_w.state.threshold
            ref = dt * (1.0 - c) / (1.0 - weight_inverse(w, c))
            worst_dev = max(worst_dev, abs(dw - ref))
            ok &= abs(dw - ref) <= 1.0
            order = compare_candidates(res_w.state, res_t.state)
            if c < pivot:
                ok &= order <= 0
            elif c > pivot:
                ok &= order >= 0
            if abs(dw - dt) > 1:
                t, f, _ = brute_force_pne(GameSpec(params, w, c), grid=200)
                match = states_within_one_step(
                    params.distribution, (t, f), (dw, res_w.state.fraction), grid=200
                )
                ok &= match
                rows.append((round(c, 2), alpha, dt, dw, round(ref, 2), t, match))
    assert report(
        "criterion 5a(i): weighted thresholds within +-1 of d_identity*theta(c) for c <= 0.5",
        ok,
        f"max |d_w - d_identity*theta| {worst_dev:.2f}; rows with |d_w - d_identity| > 1 "
        f"(c, alpha, d_identity, d_prelec, reference, oracle threshold, oracle match): {rows}",
    )


def test_criterion_5a_weighted_threshold_dominates(sweep_table):
    d_id = _threshold_row(sweep_table, "identity")
    ok = True
    for label in ("a075", "a05"):
        d_w = _threshold_row(sweep_table, label)
        for c, dt, dw in zip(SWEEP_COSTS, d_id, d_w):
            if c >= 0.5 - 1e-12:
                ok &= dw >= dt
    assert report("criterion 5a(ii): weighted threshold >= true for c >= 0.5", ok)


def test_criterion_5a_strict_gap_at_high_cost(sweep_table):
    # strict separation wherever the true threshold has not saturated at
    # the maximum degree; at saturation both games pin to D and no strict
    # gap is attainable for any solver
    d_max = 100
    d_id = _threshold_row(sweep_table, "identity")
    strict_points = 0
    ok = True
    lines = []
    for label in ("a075", "a05"):
        d_w = _threshold_row(sweep_table, label)
        for c, dt, dw in zip(SWEEP_COSTS, d_id, d_w):
            if c < 0.8 - 1e-12:
                continue
            lines.append(f"c={c:.2f} {label}: d_t={dt} d_w={dw}")
            if dt < d_max:
                ok &= dw > dt
                strict_points += 1
            else:
                ok &= dw == d_max
    ok &= strict_points > 0
    assert report(
        "criterion 5a(iii): strict threshold gap for c >= 0.8 until saturation",
        ok,
        "; ".join(lines),
    )


def test_criterion_5b_infected_ordering(sweep_instance, sweep_table):
    params, ladder = sweep_instance
    pivot = math.exp(-1.0)
    inf_id = [r.expected_infected for r in sweep_table["identity"]]
    ok = True
    for label in ("a075", "a05"):
        inf_w = [r.expected_infected for r in sweep_table[label]]
        for c, a, b in zip(SWEEP_COSTS, inf_id, inf_w):
            if c < pivot:
                ok &= b <= a + 1e-12
            elif c > pivot:
                ok &= b >= a - 1e-12
    # equality exactly at the perception fixed point
    eq_gap = 0.0
    res_id = solve_pne(GameSpec(params, identity(), pivot), ladder=ladder)
    for alpha in (0.75, 0.5):
        res_w = solve_pne(GameSpec(params, prelec(alpha), pivot), ladder=ladder)
        eq_gap = max(eq_gap, abs(res_w.expected_infected - res_id.expected_infected))
    ok &= eq_gap <= 1e-6
    assert report(
        "criterion 5b: infected ordering around cost 1/e",
        ok,
        f"fixed-point gap {eq_gap:.2e}",
    )


def test_criterion_5c_social_optimum_threshold(sweep_instance):
    params, _ = sweep_instance
    dist = params.distribution
    t_b, f_b, unprotected_b = eradication_boundary(params)
    oracle = brute_force_social_optimum(params, SWEEP_COSTS, grid=200)
    start = time.perf_counter()
    solver = SocialOptimumSolver(params)
    ok = True
    thresholds = set()
    worst_gap = 0.0
    for c, (oracle_total, oracle_t, _) in zip(SWEEP_COSTS, oracle):
        state, breakdown = solver.solve(c)
        thresholds.add(state.threshold)
        gap = abs(breakdown.total - c * (1.0 - unprotected_b))
        worst_gap = max(worst_gap, gap)
        ok &= (
            state.threshold == t_b
            and abs(state.fraction - f_b) <= 1e-9
            and gap <= 1e-9
            and breakdown.total <= oracle_total + 1e-12
            and oracle_t == t_b
        )
        if math.isclose(c, 0.5):
            at_half = breakdown.total
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    # the reported optimum, threshold 1: the full threshold-1 state is
    # subcritical, so every threshold-1 state is infection-free and the
    # full one is the cheapest of them
    threshold_one = social_cost(params, 0.5, CandidateState(dist, dist.d_min)).total
    assert report(
        "criterion 5c: social optimum at the eradication boundary across the sweep",
        ok,
        f"computed thresholds {sorted(thresholds)}, boundary threshold {t_b} fraction {f_b:.4e}, "
        f"max |total - c*vaccinated| {worst_gap:.1e}; at c=0.5 cost {at_half:.4e} "
        f"vs best threshold-1 state {threshold_one:.4e}; {elapsed:.1f}s",
    )


def test_criterion_6_power_law_bounds():
    ok = True
    details = []

    lower_instances = [
        (power_law(2, 200, 2.0), 1.0),
        (power_law(1, 150, 2.5), 1.5),
        (power_law(1, 100, 3.0), 2.0),
    ]
    for dist, delta in lower_instances:
        ctx = PowerLawBoundContext.create(dist, delta)
        params = EpidemicParams(delta, dist)
        for j, t in enumerate(dist.degrees):
            t = int(t)
            if t == dist.d_min:
                continue
            state = CandidateState(dist, t)
            if reproduction(params, state) <= 1.0 + 1e-9:
                continue
            ok &= odds_lower_bound(ctx, t) <= endemic_odds(ctx, t) + 1e-12
    details.append(f"lower ok {ok}")

    upper_instances = [(power_law(2, 100, 3.0), 2.0), (power_law(3, 150, 3.0), 1.5)]
    up_ok = True
    for dist, delta in upper_instances:
        ctx = PowerLawBoundContext.create(dist, delta)
        params = EpidemicParams(delta, dist)
        for t in dist.degrees:
            t = int(t)
            state = CandidateState(dist, t)
            if reproduction(params, state) <= 1.0 + 1e-9:
                continue
            up_ok &= endemic_odds(ctx, t) <= odds_upper_bound(ctx, t) + 1e-12
    ok &= up_ok
    details.append(f"upper ok {up_ok}")

    cap_ok = True
    dist = power_law(1, 100, 3.0)
    ctx = PowerLawBoundContext.create(dist, 2.0)
    params = EpidemicParams(2.0, dist)
    ladder = ThresholdLadder(params)
    for w in (identity(), prelec(0.5), prelec(0.75)):
        for c in SWEEP_COSTS:
            res = solve_pne(GameSpec(params, w, c), ladder=ladder)
            cap_ok &= res.state.threshold <= threshold_upper_bound(ctx, w, c) + 1e-9
    ok &= cap_ok
    details.append(f"threshold cap ok {cap_ok}")

    ctx500 = PowerLawBoundContext.create(power_law(2, 500, 3.0), 2.0)
    rep = ratio_sandwich(ctx500, 0.75, [0.8, 0.9, 0.95])
    sandwich_ok = all(p.true_within for p in rep.points)
    sandwich_ok &= all(p.weighted_within for p in rep.points if not p.uninformative)
    ratios = [p.ratio for p in rep.points]
    ratio_ok = all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
    # the sharper weighting clips at the top cost; the flag must say so
    rep_05 = ratio_sandwich(ctx500, 0.5, [0.8, 0.9, 0.95])
    flag_ok = [p.uninformative for p in rep_05.points] == [False, False, True]
    ok &= sandwich_ok and ratio_ok and flag_ok
    details.append(
        f"sandwich ok {sandwich_ok}, ratio nondecreasing {ratio_ok} {np.round(ratios, 3)}, "
        f"clip flag ok {flag_ok}"
    )

    assert report("criterion 6: power-law bounds", ok, "; ".join(details))


def test_criterion_7_inefficiency_bound():
    rng = np.random.default_rng(77)
    ok = True
    worst_gap_ratio = 0.0
    for _ in range(50):
        dist = random_distribution(rng, max_degrees=5, degree_pool=25)
        params = random_params(rng, dist)
        rep = inefficiency(GameSpec(params, identity(), float(rng.uniform(0.05, 0.95))))
        ok &= rep.gap >= -1e-9
        ok &= rep.gap <= rep.gap_bound + 1e-12
        ok &= bool(rep.ordering_holds)
        worst_gap_ratio = max(worst_gap_ratio, rep.gap / rep.gap_bound)
    assert report(
        "criterion 7: optimum precedes equilibrium, gap within <d>/delta",
        ok,
        f"max gap/bound {worst_gap_ratio:.3f}",
    )


def test_criterion_8_weighting_round_trip_and_shape():
    # float64 supports the 1e-12 round trip only away from the endpoints
    # for small alpha (underflow below ~exp(-745^alpha), representation
    # loss near one); the grid spans the supported window
    grid = np.linspace(1e-3, 0.98, 10_000)
    worst = 0.0
    shape_ok = True
    for alpha in (0.3, 0.5, 0.75, 0.9):
        spec = prelec(alpha)
        err = max(abs(weight(spec, weight_inverse(spec, y)) - y) for y in grid)
        worst = max(worst, err)
        shape_ok &= verify_inverse_s_shape(spec).passed
    ok = worst <= 1e-12 and shape_ok
    assert report(
        "criterion 8: perception round trip and inverse-S shape",
        ok,
        f"max round-trip error {worst:.2e}, shape reports pass {shape_ok}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    scenario = str(SCENARIOS / "powerlaw_d100.json")
    out1, out2 = str(tmp_path / "run1.csv"), str(tmp_path / "run2.csv")
    rc1 = cli_main(["solve", "pne", "--scenario", scenario, "--out", out1])
    rc2 = cli_main(["solve", "pne", "--scenario", scenario, "--out", out2])
    same = Path(out1).read_bytes() == Path(out2).read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    assert report("criterion 9: byte-identical sweep artifacts", ok, f"{Path(out1).stat().st_size} bytes")
