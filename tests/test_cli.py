"""Scenario loading, command artifacts, determinism, error behavior."""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from vaxgame.cli import ScenarioError, cmd_dynamics, load_scenario, main
from vaxgame.dbmf import MAX_TABLE_BYTES

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def k4_scenario(cost=1.0 / 3.0):
    return {
        "distribution": {"type": "explicit", "mass": {"4": 1.0}},
        "delta": 2.0,
        "weightings": [{"kind": "identity"}],
        "cost": cost,
    }


def read_rows(path):
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestScenarioValidation:
    def test_loads_shipped_sweep_scenario(self):
        sc = load_scenario(str(SCENARIOS / "powerlaw_d100.json"))
        assert sc.delta == 2.0
        assert len(sc.weightings) == 3
        assert len(sc.costs) == 19
        assert all(0.0 < c < 1.0 for c in sc.costs)

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/scenario.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))

    def test_bad_delta(self, tmp_path):
        obj = k4_scenario()
        obj["delta"] = -1.0
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, obj))

    def test_sweep_invariants(self, tmp_path):
        for bad in (
            {"start": 0.5, "stop": 0.2, "steps": 5},
            {"start": 0.1, "stop": 0.9, "steps": 1},
            {"start": 0.0, "stop": 0.9, "steps": 5},
        ):
            obj = k4_scenario()
            obj["cost"] = bad
            with pytest.raises(ScenarioError):
                load_scenario(write_scenario(tmp_path, obj))

    def test_cost_outside_unit_interval(self, tmp_path):
        obj = k4_scenario(cost=1.2)
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, obj))

    def test_unknown_keys_rejected(self, tmp_path):
        obj = k4_scenario()
        obj["extra"] = 1
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, obj))


class TestPneCommand:
    def test_single_degree_row(self, tmp_path):
        scenario = write_scenario(tmp_path, k4_scenario())
        out = str(tmp_path / "pne.csv")
        assert main(["solve", "pne", "--scenario", scenario, "--out", out]) == 0
        header, rows = read_rows(out)
        assert header == ["c", "alpha", "threshold", "fraction", "v", "expected_infected", "social_cost"]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["alpha"] == "identity"
        assert int(row["threshold"]) == 4
        assert float(row["fraction"]) == pytest.approx(0.75, abs=1e-9)
        assert float(row["v"]) == pytest.approx(0.25, abs=1e-9)

    def test_rows_ordered_by_cost_then_weighting(self, tmp_path):
        obj = k4_scenario()
        obj["weightings"] = [{"kind": "identity"}, {"kind": "prelec", "alpha": 0.5}]
        obj["cost"] = {"start": 0.2, "stop": 0.4, "steps": 3}
        scenario = write_scenario(tmp_path, obj)
        out = str(tmp_path / "pne.csv")
        assert main(["solve", "pne", "--scenario", scenario, "--out", out]) == 0
        header, rows = read_rows(out)
        costs = [float(r[0]) for r in rows]
        alphas = [r[1] for r in rows]
        assert costs == sorted(costs)
        assert alphas[:2] == ["identity", "0.5"]
        assert len(rows) == 6

    def test_json_format_matches_csv(self, tmp_path):
        scenario = write_scenario(tmp_path, k4_scenario())
        out_csv = str(tmp_path / "a.csv")
        out_json = str(tmp_path / "a.json")
        main(["solve", "pne", "--scenario", scenario, "--out", out_csv])
        main(["solve", "pne", "--scenario", scenario, "--out", out_json, "--format", "json"])
        header, rows = read_rows(out_csv)
        records = json.loads(Path(out_json).read_text(encoding="utf-8"))
        assert len(records) == len(rows) == 1
        assert records[0]["threshold"] == 4
        assert float(records[0]["v"]) == pytest.approx(float(rows[0][4]), abs=0)

    def test_deterministic_output(self, tmp_path):
        obj = k4_scenario()
        obj["weightings"] = [{"kind": "identity"}, {"kind": "prelec", "alpha": 0.75}]
        obj["cost"] = {"start": 0.1, "stop": 0.9, "steps": 5}
        scenario = write_scenario(tmp_path, obj)
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        main(["solve", "pne", "--scenario", scenario, "--out", out1])
        main(["solve", "pne", "--scenario", scenario, "--out", out2])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()


class TestOtherCommands:
    def test_opt_single_degree(self, tmp_path):
        scenario = write_scenario(tmp_path, k4_scenario(cost=0.25))
        out = str(tmp_path / "opt.csv")
        assert main(["solve", "opt", "--scenario", scenario, "--out", out]) == 0
        header, rows = read_rows(out)
        row = dict(zip(header, rows[0]))
        assert int(row["opt_threshold"]) == 4
        assert float(row["opt_fraction"]) == pytest.approx(0.5, abs=1e-5)
        assert float(row["gap"]) >= -1e-9
        assert float(row["bound"]) == pytest.approx(2.0)

    def test_bounds_command(self, tmp_path):
        obj = {
            "distribution": {"type": "powerlaw", "d_min": 2, "d_max": 500, "beta": 3.0},
            "delta": 2.0,
            "weightings": [{"kind": "prelec", "alpha": 0.75}],
            "cost": {"start": 0.8, "stop": 0.95, "steps": 3},
        }
        scenario = write_scenario(tmp_path, obj)
        out = str(tmp_path / "bounds.csv")
        assert main(["solve", "bounds", "--scenario", scenario, "--out", out]) == 0
        header, rows = read_rows(out)
        assert header[:3] == ["c", "d_t", "d_w"]
        assert header[-1] == "uninformative"
        for r in rows:
            row = dict(zip(header, r))
            if row["uninformative"] == "0":
                assert float(row["lower_t"]) <= float(row["d_t"]) <= float(row["upper_t"])
                assert float(row["lower_w"]) <= float(row["d_w"]) <= float(row["upper_w"])

    def test_bounds_requires_prelec(self, tmp_path, capsys):
        obj = k4_scenario()
        scenario = write_scenario(tmp_path, obj)
        rc = main(["solve", "bounds", "--scenario", scenario, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"

    def test_dynamics_zero_initial_condition(self, tmp_path):
        obj = {
            "distribution": {"type": "explicit", "mass": {"2": 0.5, "5": 0.5}},
            "delta": 1.0,
            "weightings": [{"kind": "identity"}],
            "dynamics": {"p0": 0.0, "t_end": 2.0, "sample_stride": 50},
        }
        scenario = write_scenario(tmp_path, obj)
        out = str(tmp_path / "dyn.csv")
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", out]) == 0
        header, rows = read_rows(out)
        assert header == ["t", "p_2", "p_5"]
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)

    def test_dynamics_converges_to_endemic(self, tmp_path):
        obj = {
            "distribution": {"type": "explicit", "mass": {"4": 1.0}},
            "delta": 2.0,
            "weightings": [{"kind": "identity"}],
            "dynamics": {"p0": 0.5, "t_end": 40.0, "sample_stride": 1000},
        }
        scenario = write_scenario(tmp_path, obj)
        out = str(tmp_path / "dyn.csv")
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", out]) == 0
        _, rows = read_rows(out)
        assert float(rows[-1][1]) == pytest.approx(0.5, abs=1e-6)


class TestDenseTrajectoryMemory:
    """A work budget for the dense ``solve dynamics`` path, not a clock.

    The integrator fills one preallocated float table, time column
    included, and both writers stream that table in blocks, so the traced
    peak of a run stays near one copy of the table.  A stacked copy with
    the time column, per-row lists of boxed floats or per-row dicts would
    each add copies of their own.
    """

    # t = 0..30 in steps of 0.01/delta, 101 degrees
    TABLE_BYTES = 6001 * 101 * 8

    def traced_peak(self, tmp_path, fmt):
        """Traced peak of the 6,001 x 101 dense job written as ``fmt``, and the output path."""
        obj = {
            "distribution": {"type": "powerlaw", "d_min": 1, "d_max": 100, "beta": 3.0},
            "delta": 2.0,
            "dynamics": {"p0": 0.5, "t_end": 30.0, "sample_stride": 1, "state": {"threshold": 20}},
        }
        out = str(tmp_path / f"dyn.{fmt}")
        args = ["solve", "dynamics", "--scenario", write_scenario(tmp_path, obj), "--out", out, "--format", fmt]
        # a short first run imports and caches, so the traced one sees only the job
        short = write_scenario(tmp_path, dict(obj, dynamics=dict(obj["dynamics"], t_end=0.1)), "short.json")
        assert main(["solve", "dynamics", "--scenario", short, "--out", out, "--format", fmt]) == 0
        tracemalloc.start()
        try:
            assert main(args) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, out

    def test_peak_is_a_small_multiple_of_the_table(self, tmp_path):
        peak, out = self.traced_peak(tmp_path, "csv")
        assert len(read_rows(out)[1]) == 6001
        assert peak <= 1.5 * self.TABLE_BYTES, peak / self.TABLE_BYTES

    def test_json_peak_is_a_small_multiple_of_the_table(self, tmp_path):
        peak, out = self.traced_peak(tmp_path, "json")
        with open(out, encoding="utf-8") as fh:
            assert len(json.load(fh)) == 6001
        assert peak <= 1.5 * self.TABLE_BYTES, peak / self.TABLE_BYTES


class TestDefaultStep:
    """``solve dynamics`` steps at min(0.01/delta, 1.5/(delta + d_max*s)) unless given a dt."""

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_scenarios_default_step(self, path):
        scenario = load_scenario(str(path))
        has_block = "dynamics" in scenario.options
        # one step, so the second time sample is the step itself
        scenario.options.setdefault("dynamics", {})["t_end"] = 1e-9
        _, table = cmd_dynamics(scenario)
        assert table.shape[0] == 2
        fixed = 0.01 / scenario.delta
        if has_block or path.stem != "bounds_d500":
            # the golden trajectories keep their step, and their bytes
            assert table[1, 0] == fixed
        else:
            # everyone unprotected (s = 1) up to degree 500 > 149*delta
            assert table[1, 0] == pytest.approx(1.5 / (scenario.delta + 500), rel=1e-12)
            assert table[1, 0] < fixed

    @staticmethod
    def large_threshold_state(tmp_path, t_end, stride):
        obj = {
            "distribution": {"type": "powerlaw", "d_min": 1, "d_max": 10_000, "beta": 3.0},
            "delta": 2.0,
            "dynamics": {"p0": 0.5, "t_end": t_end, "sample_stride": stride, "state": {"threshold": 20}},
        }
        return write_scenario(tmp_path, obj)

    def test_large_degree_set_integrates_at_the_stable_step(self, tmp_path):
        # 0.01/delta = 0.005 left [0, 1] at the first step here
        out = str(tmp_path / "dyn.csv")
        scenario = self.large_threshold_state(tmp_path, 0.05, 100)
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", out]) == 0
        _, rows = read_rows(out)
        # dt = 1.5/(2 + 10^4*s) is about 1.55e-4: 323 steps, sampled at 0, 100, 200, 300, 323
        assert len(rows) == 5 and len(rows[0]) == 10_001
        assert all(0.0 <= float(v) <= 1.0 for row in rows for v in row[1:])

    def test_oversized_table_is_refused_before_allocating(self, tmp_path, capsys):
        # about 194,000 rows x 10,001 columns: 14.5 GiB
        scenario = self.large_threshold_state(tmp_path, 30.0, 1)
        args = ["solve", "dynamics", "--scenario", scenario, "--out", str(tmp_path / "dyn.csv")]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert main(args) == 2
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert "x 10,001 floats" in err["message"] and "GiB" in err["message"]
        assert peak < MAX_TABLE_BYTES / 100, peak
        assert elapsed < 5.0, elapsed


class TestErrorExit:
    def test_malformed_scenario_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        rc = main(["solve", "pne", "--scenario", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert "JSON" in err["message"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("delta", True),  # ran with delta = 1 before
            ("delta", float("inf")),  # JSON Infinity; a ValueError past loading before
            ("cost", {"start": 0.1, "stop": 0.9, "steps": 2.7}),  # ran with 2 steps before
            ("cost", {"start": 0.1, "stop": 0.9, "steps": True}),
            ("cost", {"start": 0.1, "stop": 0.9, "steps": "5"}),
        ],
        ids=["delta-true", "delta-inf", "steps-float", "steps-true", "steps-string"],
    )
    def test_mistyped_scenario_values_exit_2(self, tmp_path, capsys, key, value):
        obj = k4_scenario()
        obj[key] = value
        scenario = write_scenario(tmp_path, obj)
        out = tmp_path / "o.csv"
        rc = main(["solve", "pne", "--scenario", scenario, "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError" and key in err["message"]

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("cost", "start"), "0.1", "cost"),  # ran with start 0.1 before
            (("weightings", 0, "alpha"), "0.5", "alpha"),
            (("weightings", 0, "alpha"), True, "alpha"),  # ran with alpha = 1 before
            (("distribution", "mass"), [1.0], "distribution"),  # AttributeError before
            (("distribution", "mass", "4"), "1.0", "distribution"),
            (("distribution",), {"type": "powerlaw", "d_min": 1.5, "d_max": 9, "beta": 3.0}, "d_min"),
            (("distribution",), {"type": "powerlaw", "d_min": 1, "d_max": 9, "beta": "3"}, "beta"),
            # AttributeError before, for both
            (("distribution",), [1, 2], "distribution"),
            (("weightings",), ["identity"], "weightings"),
            # reported as a missing 'distribution' before
            (("distribution",), {"type": "powerlaw", "d_min": 1, "beta": 3.0}, "d_max"),
        ],
        ids=[
            "start-string",
            "alpha-string",
            "alpha-true",
            "mass-list",
            "mass-string",
            "d_min-float",
            "beta-string",
            "distribution-list",
            "weighting-string",
            "d_max-missing",
        ],
    )
    def test_mistyped_nested_values_exit_2(self, tmp_path, capsys, path, value, message):
        obj = k4_scenario()
        obj["cost"] = {"start": 0.1, "stop": 0.9, "steps": 3}
        obj["weightings"] = [{"kind": "prelec", "alpha": 0.5}]
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        scenario = write_scenario(tmp_path, obj)
        out = tmp_path / "o.csv"
        rc = main(["solve", "pne", "--scenario", scenario, "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError" and message in err["message"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("p0", "0.5"),
            ("t_end", "2"),
            ("t_end", float("inf")),  # JSON Infinity; OverflowError before
            ("dt", "0.5"),
            ("dt", float("inf")),
            ("sample_stride", 2.7),  # ran as stride 2 before
            ("sample_stride", True),
            ("state", {"threshold": "4"}),
            ("state", {"threshold": True}),  # ran as threshold 1 before
            ("state", {"threshold": 4, "fraction": "0.5"}),
        ],
        ids=[
            "p0-string",
            "t_end-string",
            "t_end-inf",
            "dt-string",
            "dt-inf",
            "stride-float",
            "stride-true",
            "threshold-string",
            "threshold-true",
            "fraction-string",
        ],
    )
    def test_mistyped_dynamics_values_exit_2(self, tmp_path, capsys, key, value):
        obj = k4_scenario()
        obj["dynamics"] = {"p0": 0.5, "t_end": 2.0, "dt": 0.5, "sample_stride": 1}
        obj["dynamics"][key] = value
        scenario = write_scenario(tmp_path, obj)
        out = tmp_path / "o.csv"
        rc = main(["solve", "dynamics", "--scenario", scenario, "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError" and key in err["message"]

    def test_nan_p0_is_named(self, tmp_path, capsys):
        # JSON NaN passed two "outside [0, 1]" tests and failed later as an
        # unstable step, with advice to reduce dt
        obj = k4_scenario()
        obj["dynamics"] = {"p0": float("nan"), "t_end": 2.0, "dt": 0.5}
        scenario = write_scenario(tmp_path, obj)
        out = tmp_path / "o.csv"
        rc = main(["solve", "dynamics", "--scenario", scenario, "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "p0" in err["message"] and "dt" not in err["message"]

    def test_option_sections_must_be_objects(self, tmp_path, capsys):
        obj = k4_scenario()
        obj["dynamics"] = [{"t_end": 1.0}]
        scenario = write_scenario(tmp_path, obj)
        rc = main(["solve", "dynamics", "--scenario", scenario, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ScenarioError"

    def test_mistyped_bounds_alpha_exits_2(self, tmp_path, capsys):
        obj = k4_scenario(cost=0.8)
        obj["distribution"] = {"type": "powerlaw", "d_min": 2, "d_max": 50, "beta": 3.0}
        obj["bounds"] = {"alpha": "0.5"}  # ran with alpha 0.5 before
        out = tmp_path / "o.csv"
        assert main(["solve", "bounds", "--scenario", write_scenario(tmp_path, obj), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError" and "bounds.alpha" in err["message"]

    @pytest.mark.parametrize(
        "section, value, key",
        [
            # ran to the default t_end = 25 before
            ("dynamics", {"t_nd": 1.0, "dt": 0.5, "sample_stride": 10}, "t_nd"),
            ("dynamics", {"t_end": 1.0, "dt": 0.5, "state": {"threshold": 4, "frac": 0.5}}, "frac"),
            ("bounds", {"alpha": 0.5, "alhpa": 0.7}, "alhpa"),
        ],
        ids=["dynamics", "dynamics-state", "bounds"],
    )
    def test_unknown_option_keys_exit_2(self, tmp_path, capsys, section, value, key):
        obj = k4_scenario(cost=0.8)
        obj["distribution"] = {"type": "powerlaw", "d_min": 1, "d_max": 10, "beta": 3.0}
        obj[section] = value
        out = tmp_path / "o.csv"
        what = "bounds" if section == "bounds" else "dynamics"
        assert main(["solve", what, "--scenario", write_scenario(tmp_path, obj), "--out", str(out)]) == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError" and key in err["message"]

    @pytest.mark.parametrize("length", [3, 11, 1])
    def test_p0_list_needs_one_value_per_degree(self, tmp_path, capsys, length):
        # 3 and 11 exited as a numpy broadcast error before; 1 ran, spread over all 10 degrees
        obj = {
            "distribution": {"type": "powerlaw", "d_min": 1, "d_max": 10, "beta": 3.0},
            "delta": 2.0,
            "dynamics": {"p0": [0.3] * length, "t_end": 1.0},
        }
        out = tmp_path / "o.csv"
        assert main(["solve", "dynamics", "--scenario", write_scenario(tmp_path, obj), "--out", str(out)]) == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert "p0" in err["message"] and "10" in err["message"]

    def test_dynamics_accepts_per_degree_p0(self, tmp_path):
        obj = k4_scenario()
        obj["dynamics"] = {"p0": [0.25], "t_end": 1.0, "dt": 0.5}
        out = tmp_path / "o.csv"
        scenario = write_scenario(tmp_path, obj)
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [r[0] for r in rows] == ["0", "0.5", "1"] and rows[0][1] == "0.25"

    @pytest.mark.parametrize("what", ["pne", "opt"])
    def test_inverse_weight_rounding_to_one(self, tmp_path, what):
        # w^{-1}(0.9) under prelec 0.05 rounds to 1.0; K = delta*u/(1-u)
        # divided by zero before
        obj = {
            "distribution": {"type": "powerlaw", "d_min": 1, "d_max": 100, "beta": 3.0},
            "delta": 2.0,
            "weightings": [{"kind": "prelec", "alpha": 0.05}],
            "cost": 0.9,
        }
        out = tmp_path / "o.csv"
        assert main(["solve", what, "--scenario", write_scenario(tmp_path, obj), "--out", str(out)]) == 0
        header, rows = read_rows(out)
        if what == "pne":
            # cmd_pne raises unless the certificate passes
            assert rows[0][header.index("threshold")] == "100"

    def test_bounds_with_inverse_weight_rounding_to_one(self, tmp_path):
        obj = {
            "distribution": {"type": "powerlaw", "d_min": 2, "d_max": 500, "beta": 3.0},
            "delta": 2.0,
            "cost": {"start": 0.8, "stop": 0.95, "steps": 4},
            "bounds": {"alpha": 0.05},
        }
        out = tmp_path / "o.csv"
        assert main(["solve", "bounds", "--scenario", write_scenario(tmp_path, obj), "--out", str(out)]) == 0
        header, rows = read_rows(out)
        # every point clips: the weighted threshold sits at d_max
        assert all(r[header.index("uninformative")] == "1" for r in rows)
        assert rows[-1][header.index("upper_w")] == "inf"

    def test_json_writes_null_where_csv_has_inf(self, tmp_path):
        obj = {
            "distribution": {"type": "powerlaw", "d_min": 2, "d_max": 500, "beta": 3.0},
            "delta": 2.0,
            "cost": {"start": 0.8, "stop": 0.95, "steps": 4},
            "bounds": {"alpha": 0.05},
        }
        scenario = write_scenario(tmp_path, obj)
        out_csv, out_json = tmp_path / "o.csv", tmp_path / "o.json"
        assert main(["solve", "bounds", "--scenario", scenario, "--out", str(out_csv)]) == 0
        assert main(["solve", "bounds", "--scenario", scenario, "--out", str(out_json), "--format", "json"]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        records = json.loads(out_json.read_text(encoding="utf-8"), parse_constant=reject)
        header, rows = read_rows(out_csv)
        assert [list(r) for r in records] == [header] * len(rows)
        nulls = [[r[key] is None for key in header] for r in records]
        infs = [[value == "inf" for value in row] for row in rows]
        assert nulls == infs
        assert sum(map(sum, nulls)) == 6

    def test_missing_cost_for_pne(self, tmp_path, capsys):
        obj = k4_scenario()
        del obj["cost"]
        scenario = write_scenario(tmp_path, obj)
        rc = main(["solve", "pne", "--scenario", scenario, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ScenarioError"
