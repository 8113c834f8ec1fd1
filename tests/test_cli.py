"""Scenario loading, command artifacts, determinism, error behavior."""

import contextlib
import errno
import io
import json
import math
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import WriteOnly, assert_no_child, count_forks, set_cpus

from vaxgame.cli import MAX_COST_STEPS, ScenarioError, _TableSink, cmd_dynamics, load_scenario, main
from vaxgame.dbmf import BLOCK_ROWS, MAX_TABLE_BYTES

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# a JSON integer that no float holds
BIG = 10**400
WITH_COSTS = [p for p in sorted(SCENARIOS.glob("*.json")) if "cost" in json.loads(p.read_text(encoding="utf-8"))]


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

    def test_sweep_at_the_cap_loads(self, tmp_path):
        obj = k4_scenario({"start": 0.1, "stop": 0.9, "steps": MAX_COST_STEPS})
        costs = load_scenario(write_scenario(tmp_path, obj)).costs
        assert len(costs) == MAX_COST_STEPS == 10**6
        assert costs[0] == 0.1 and costs[-1] == 0.9

    def test_cost_outside_unit_interval(self, tmp_path):
        obj = k4_scenario(cost=1.2)
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, obj))

    def test_oversized_power_law_is_a_scenario_error(self, tmp_path, capsys):
        obj = {"distribution": {"type": "powerlaw", "d_min": 1, "d_max": 10**15, "beta": 3}, "delta": 2.0, "cost": 0.5}
        scenario = write_scenario(tmp_path, obj)
        assert main(["solve", "pne", "--scenario", scenario, "--out", str(tmp_path / "pne.csv")]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ScenarioError",
            "message": "invalid distribution: every mass entry must be at least 1e-15",
        }

    @pytest.mark.parametrize("beta", ["Infinity", "1e400", "NaN"])
    def test_non_finite_power_law_exponent_is_a_scenario_error(self, tmp_path, capsys, beta):
        # json.load reads all three; the first two exited with "math domain error" before
        obj = {"distribution": {"type": "powerlaw", "d_min": 1, "d_max": 10, "beta": "BETA"}, "delta": 2.0, "cost": 0.5}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(obj).replace('"BETA"', beta), encoding="utf-8")
        assert main(["solve", "pne", "--scenario", str(scenario), "--out", str(tmp_path / "pne.csv")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert err["message"].startswith("invalid distribution: power-law exponent must be positive and finite")

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

    @pytest.mark.parametrize("scenario", WITH_COSTS, ids=lambda p: p.stem)
    def test_opt_reports_the_pne_social_cost(self, tmp_path, scenario):
        # both tables are written from the same certified equilibria
        columns = []
        for what, column in (("pne", "social_cost"), ("opt", "pne_social_cost")):
            out = tmp_path / f"{what}.csv"
            assert main(["solve", what, "--scenario", str(scenario), "--out", str(out)]) == 0
            header, rows = read_rows(out)
            columns.append([row[header.index(column)] for row in rows])
        assert columns[0] == columns[1]

    def test_opt_and_pne_exit_alike_on_a_certificate_near_criticality(self, tmp_path, capsys):
        # on powerlaw_d100 with prelec 0.3 the c = 0.05 equilibrium sits at R ~ 1,
        # where its certificate can fail: both commands must end the same way
        obj = json.loads((SCENARIOS / "powerlaw_d100.json").read_text(encoding="utf-8"))
        obj["weightings"] = [{"kind": "prelec", "alpha": 0.3}]
        scenario = write_scenario(tmp_path, obj)
        results = []
        for what in ("pne", "opt"):
            out = tmp_path / f"{what}.csv"
            rc = main(["solve", what, "--scenario", scenario, "--out", str(out)])
            results.append((rc, capsys.readouterr().err))
            # a failed command leaves no artifact
            assert out.exists() == (rc == 0)
        assert results[0] == results[1]

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

    The integrator passes each 64-row block of the float table, time
    column included, to a sink that formats it straight into the output,
    so the traced peak of a run stays below a fraction of one table, at
    any row count.  A whole table, per-row lists of boxed floats or
    per-row dicts would each grow with the rows.  The runs go to an
    ``out`` without ``fileno``, so the blocks are formatted in this
    process, where ``tracemalloc`` sees them, not in a forked writer.
    """

    # t = 0..30 in steps of 0.01/delta, 11 degrees
    TABLE_BYTES = 6001 * 12 * 8

    @staticmethod
    def traced_peak(tmp_path, fmt, t_end):
        """Traced peak of the dense job to ``t_end`` formatted in this process as ``fmt``, and the output path."""
        obj = {
            "distribution": {"type": "powerlaw", "d_min": 1, "d_max": 10, "beta": 3.0},
            "delta": 2.0,
            "dynamics": {"p0": 0.5, "t_end": t_end, "sample_stride": 1, "state": {"threshold": 2}},
        }
        out = tmp_path / f"dyn_{t_end:g}.{fmt}"
        scenario = load_scenario(write_scenario(tmp_path, obj))
        # a short first run imports and caches, so the traced one sees only the job
        short = write_scenario(tmp_path, dict(obj, dynamics=dict(obj["dynamics"], t_end=0.1)), "short.json")
        cmd_dynamics(load_scenario(short), WriteOnly(), fmt)
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            tracemalloc.start()
            try:
                cmd_dynamics(scenario, WriteOnly(fh), fmt)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return peak, out

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        """``(peak, out)`` of each format at 1,501 and then 6,001 rows.

        Tracing slows the job several times over, so each run is made
        once, in a fixed order, and every test of the class reads it.
        """
        tmp_path = tmp_path_factory.mktemp("dense")
        return {(fmt, t_end): self.traced_peak(tmp_path, fmt, t_end) for fmt in ("csv", "json") for t_end in (7.5, 30.0)}

    def test_peak_is_a_small_multiple_of_the_table(self, traced):
        peak, out = traced["csv", 30.0]
        assert len(read_rows(out)[1]) == 6001
        assert peak <= 1.5 * self.TABLE_BYTES, peak / self.TABLE_BYTES

    def test_json_peak_is_a_small_multiple_of_the_table(self, traced):
        peak, out = traced["json", 30.0]
        with open(out, encoding="utf-8") as fh:
            assert len(json.load(fh)) == 6001
        assert peak <= 1.5 * self.TABLE_BYTES, peak / self.TABLE_BYTES

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_streamed_peak_does_not_grow_with_the_rows(self, traced, fmt):
        (small, _), (peak, out) = traced[fmt, 7.5], traced[fmt, 30.0]
        with open(out, encoding="utf-8") as fh:
            if fmt == "csv":
                assert sum(1 for _ in fh) == 6001 + 1
            else:
                assert len(json.load(fh)) == 6001
        # no table is held, and four times the rows leave the peak where it was
        assert peak <= 0.25 * self.TABLE_BYTES, peak / self.TABLE_BYTES
        assert peak - small <= 0.01 * self.TABLE_BYTES, (peak - small) / self.TABLE_BYTES


class TestDefaultStep:
    """``solve dynamics`` steps at min(0.01/delta, 1.5/(delta + d_max*s)) unless given a dt."""

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_scenarios_default_step(self, path):
        scenario = load_scenario(str(path))
        has_block = "dynamics" in scenario.options
        # one step, so the second time sample is the step itself
        scenario.options.setdefault("dynamics", {})["t_end"] = 1e-9
        out = io.StringIO()
        cmd_dynamics(scenario, out, "csv")
        rows = [line.split(",") for line in out.getvalue().strip().split("\n")[1:]]
        assert len(rows) == 2
        # 17 significant digits give back the float itself
        step = float(rows[1][0])
        fixed = 0.01 / scenario.delta
        if has_block or path.stem != "bounds_d500":
            # the golden trajectories keep their step, and their bytes
            assert step == fixed
        else:
            # everyone unprotected (s = 1) up to degree 500 > 149*delta
            assert step == pytest.approx(1.5 / (scenario.delta + 500), rel=1e-12)
            assert step < fixed

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


class TestArtifact:
    """``--out`` is replaced only by a finished artifact, as ``open(path, "w")`` would write it."""

    @staticmethod
    def dynamics_scenario(tmp_path, **dynamics):
        obj = {
            "distribution": {"type": "powerlaw", "d_min": 1, "d_max": 10, "beta": 3.0},
            "delta": 0.5,
            "dynamics": dict({"p0": 0.5}, **dynamics),
        }
        return write_scenario(tmp_path, obj)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_mid_stream_leaves_no_artifact(self, tmp_path, capsys, fmt):
        # everyone unprotected; dt = 0.404 is unstable here and leaves [0, 1] late
        scenario = self.dynamics_scenario(tmp_path, dt=0.404, t_end=400.0)
        directory = tmp_path / "out"
        directory.mkdir()
        out = directory / f"dyn.{fmt}"
        out.write_bytes(b"sentinel")
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", str(out), "--format", fmt]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IntegrationError"
        t = float(err["message"].split("t=")[1].split(";")[0])
        # blocks were streamed before the failing step (139, t = 56.156)
        assert round(t / 0.404) > BLOCK_ROWS
        assert out.read_bytes() == b"sentinel"
        assert [p.name for p in directory.iterdir()] == [out.name]
        assert_no_child()

    def test_no_writer_outlives_a_finished_run(self, tmp_path, monkeypatch):
        # 1,000 steps: sixteen blocks go through the writer process
        scenario = self.dynamics_scenario(tmp_path, t_end=20.0)
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        out = tmp_path / "dyn.csv"
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", str(out)]) == 0
        assert forks() == 1
        assert_no_child()
        assert len(read_rows(out)[1]) == 1001

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_full_device_exits_2(self, tmp_path, capsys, fmt):
        scenario = self.dynamics_scenario(tmp_path, t_end=20.0)
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", "/dev/full", "--format", fmt]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "OSError", "message": "[Errno 28] No space left on device"}
        assert_no_child()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writer_failure_is_raised_as_its_own_error(self, tmp_path, monkeypatch, capsys, fmt):
        # the third block fails in the writer process, which alone formats;
        # the parent's next frame then meets a closed pipe
        format_block = _TableSink.__call__
        blocks = 0

        def failing(sink, block):
            nonlocal blocks
            blocks += 1
            if blocks == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            format_block(sink, block)

        monkeypatch.setattr(_TableSink, "__call__", failing)
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        # 10,000 steps: 157 frames, far more than the pipe holds
        scenario = self.dynamics_scenario(tmp_path, t_end=200.0)
        out = tmp_path / f"dyn.{fmt}"
        out.write_bytes(b"sentinel")
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", str(out), "--format", fmt]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "OSError", "message": "[Errno 28] No space left on device"}
        assert forks() == 1 and blocks == 0
        assert_no_child()
        assert out.read_bytes() == b"sentinel"
        assert sorted(p.name for p in tmp_path.iterdir()) == [out.name, "scenario.json"]

    def test_existing_file_keeps_its_mode_and_a_link_stays(self, tmp_path):
        scenario = self.dynamics_scenario(tmp_path, t_end=0.1)
        target, link = tmp_path / "dyn.csv", tmp_path / "link.csv"
        target.write_bytes(b"old")
        target.chmod(0o604)
        link.symlink_to(target.name)
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.stat().st_mode & 0o777 == 0o604
        assert target.read_text(encoding="utf-8").startswith("t,p_1,")

    @pytest.mark.skipif(hasattr(os, "geteuid") and os.geteuid() == 0, reason="root may write a read-only file")
    def test_read_only_target_is_refused_and_kept(self, tmp_path, capsys):
        scenario = self.dynamics_scenario(tmp_path, t_end=0.1)
        out = tmp_path / "dyn.csv"
        out.write_bytes(b"sentinel")
        out.chmod(0o444)
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "PermissionError", "message": f"[Errno 13] Permission denied: '{out}'"}
        assert out.read_bytes() == b"sentinel"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dyn.csv", "scenario.json"]

    def test_error_names_the_out_path(self, tmp_path, capsys):
        scenario = self.dynamics_scenario(tmp_path, t_end=0.1)
        out = tmp_path / "missing" / "dyn.csv"
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "FileNotFoundError", "message": f"[Errno 2] No such file or directory: '{out}'"}

    @pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="no /dev/stdout")
    def test_non_regular_target_is_written_in_place(self, tmp_path, capfd):
        # the captured stdout is an unlinked file, which has no path to rename over
        scenario = self.dynamics_scenario(tmp_path, t_end=0.1)
        out = tmp_path / "dyn.csv"
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", str(out)]) == 0
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", "/dev/stdout"]) == 0
        assert capfd.readouterr().out == out.read_text(encoding="utf-8")


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
            # numpy's ValueError "Maximum allowed size exceeded" before
            (("cost", "steps"), 10**30, "'cost.steps'"),
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
            (("distribution",), {"type": "lognormal"}, "lognormal"),
            (("weightings", 0), {"kind": "tversky"}, "tversky"),
        ],
        ids=[
            "start-string",
            "steps-oversized",
            "alpha-string",
            "alpha-true",
            "mass-list",
            "mass-string",
            "d_min-float",
            "beta-string",
            "distribution-list",
            "weighting-string",
            "d_max-missing",
            "unknown-type",
            "unknown-kind",
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
            # both ran everyone vaccinated before, the fraction dropped
            ("state", {"fraction": 0.01}),
            ("state", {"threshold": None, "fraction": 0.3}),
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
            "fraction-without-threshold",
            "fraction-with-null-threshold",
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

    def test_step_count_past_the_float_range_exits_2(self, tmp_path, capsys):
        # t_end/dt is inf: exited 2 as a raw OverflowError before
        obj = k4_scenario()
        obj["dynamics"] = {"p0": 0.5, "t_end": 1e300, "dt": 1e-10}
        scenario = write_scenario(tmp_path, obj)
        out = tmp_path / "o.csv"
        rc = main(["solve", "dynamics", "--scenario", scenario, "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert "trajectory too large" in err["message"] and "t_end/dt = 1e+300/1e-10" in err["message"]

    def test_cost_sweep_past_the_cap_exits_2_before_any_cost_is_made(self, tmp_path, capsys, monkeypatch):
        def no_costs(*args):
            raise AssertionError("costs made before the cap was checked")

        monkeypatch.setattr(np, "linspace", no_costs)
        obj = k4_scenario({"start": 0.1, "stop": 0.9, "steps": MAX_COST_STEPS + 1})
        scenario = write_scenario(tmp_path, obj)
        out = tmp_path / "o.csv"
        rc = main(["solve", "pne", "--scenario", scenario, "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"
        assert err["message"] == "'cost.steps' must be an integer of at most 1,000,000"

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

    def test_mistyped_bounds_alpha_exits_2(self, tmp_path, monkeypatch, capsys):
        obj = k4_scenario(cost={"start": 0.2, "stop": 0.8, "steps": 4})
        obj["distribution"] = {"type": "powerlaw", "d_min": 2, "d_max": 50, "beta": 3.0}
        out = tmp_path / "o.csv"
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        # "0.5" ran with alpha 0.5 before; the numbers outside (0, 1] exited
        # as a ValueError, raised in each process of the cost split
        for alpha in ["0.5", 0, -0.5, 1.5, 2, 10**400]:
            obj["bounds"] = {"alpha": alpha}
            assert main(["solve", "bounds", "--scenario", write_scenario(tmp_path, obj), "--out", str(out)]) == 2
            assert forks() == 0 and not out.exists()
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ScenarioError" and "bounds.alpha" in err["message"], alpha

    @pytest.mark.parametrize(
        "what, distribution, delta, message",
        [
            # delta = 50 reaches <d^2>/<d>: no game is defined at any cost
            ("pne", {"type": "powerlaw", "d_min": 1, "d_max": 50, "beta": 3.0}, 50.0, "delta"),
            ("opt", {"type": "powerlaw", "d_min": 1, "d_max": 50, "beta": 3.0}, 50.0, "delta"),
            # the sandwich needs exponent 3, a minimum degree above 1 and a power law
            ("bounds", {"type": "powerlaw", "d_min": 1, "d_max": 50, "beta": 3.0}, 2.0, "minimum degree"),
            ("bounds", {"type": "powerlaw", "d_min": 2, "d_max": 50, "beta": 2.5}, 2.0, "exponent 3"),
            ("bounds", {"type": "explicit", "mass": {"4": 0.5, "8": 0.5}}, 2.0, "power-law"),
        ],
        ids=["pne-delta", "opt-delta", "bounds-d_min", "bounds-beta", "bounds-explicit"],
    )
    def test_inputs_every_cost_refuses_exit_2_before_a_fork(
        self, tmp_path, monkeypatch, capsys, what, distribution, delta, message
    ):
        # each forked a child and failed on both sides, then solved the costs
        # again in order and exited as a ValueError; explicit ran no fork
        obj = k4_scenario(cost={"start": 0.2, "stop": 0.8, "steps": 4})
        obj.update(distribution=distribution, delta=delta, bounds={"alpha": 0.5})
        out = tmp_path / "o.csv"
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        assert main(["solve", what, "--scenario", write_scenario(tmp_path, obj), "--out", str(out)]) == 2
        assert forks() == 0 and not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError" and message in err["message"]

    @pytest.mark.parametrize(
        "what, path, value, key",
        [
            ("pne", ("delta",), BIG, "delta"),
            ("pne", ("cost",), BIG, "cost"),
            ("pne", ("distribution",), {"type": "powerlaw", "d_min": 1, "d_max": 10, "beta": BIG}, "beta"),
            ("pne", ("distribution", "mass", "4"), BIG, "mass"),
            ("pne", ("distribution", "mass"), {"9223372036854775808": 1.0}, "mass"),
            ("pne", ("weightings", 0, "alpha"), BIG, "alpha"),
            ("dynamics", ("dynamics", "t_end"), BIG, "t_end"),
            ("dynamics", ("dynamics", "dt"), BIG, "dt"),
            ("dynamics", ("dynamics", "p0"), BIG, "p0"),
            ("dynamics", ("dynamics", "p0"), [BIG], "p0"),
            ("dynamics", ("dynamics", "state", "fraction"), BIG, "fraction"),
            # a UFuncTypeError from np.linspace before, the others an OverflowError
            ("pne", ("cost",), {"start": -BIG, "stop": 0.9, "steps": 3}, "start"),
            ("pne", ("cost",), {"start": 0.1, "stop": BIG, "steps": 3}, "stop"),
            # np.arange raises OverflowError past int64
            ("pne", ("distribution",), {"type": "powerlaw", "d_min": 2**63, "d_max": 2**63, "beta": 3}, "distribution"),
        ],
        ids=[
            "delta",
            "cost",
            "beta",
            "mass",
            "degree-key",
            "alpha",
            "t_end",
            "dt",
            "p0",
            "p0-list",
            "fraction",
            "start",
            "stop",
            "degree-past-int64",
        ],
    )
    def test_numbers_no_float_holds_exit_2_before_a_fork(self, tmp_path, monkeypatch, capsys, what, path, value, key):
        obj = k4_scenario()
        obj["weightings"] = [{"kind": "prelec", "alpha": 0.5}]
        obj["dynamics"] = {"p0": 0.5, "t_end": 1.0, "dt": 0.5, "state": {"threshold": 4, "fraction": 0.5}}
        node = obj
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        out = tmp_path / "o.csv"
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        assert main(["solve", what, "--scenario", write_scenario(tmp_path, obj), "--out", str(out)]) == 2
        assert forks() == 0 and not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError" and key in err["message"]

    @pytest.mark.parametrize(
        "text, key",
        [
            # ran with cost 0.9 before: json.load keeps the last value
            ('{"distribution": {"type": "explicit", "mass": {"4": 1.0}}, "delta": 2.0, "cost": 0.3, "cost": 0.9}', "cost"),
            ('{"distribution": {"type": "explicit", "mass": {"4": 0.5, "4": 1.0}}, "delta": 2.0, "cost": 0.3}', "4"),
        ],
        ids=["scenario", "mass"],
    )
    def test_a_key_given_twice_exits_2(self, tmp_path, capsys, text, key):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text, encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["solve", "pne", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError" and f"'{key}'" in err["message"]

    @pytest.mark.parametrize(
        "section, value, key",
        [
            # ran to the default t_end = 25 before
            ("dynamics", {"t_nd": 1.0, "dt": 0.5, "sample_stride": 10}, "t_nd"),
            ("dynamics", {"t_end": 1.0, "dt": 0.5, "state": {"threshold": 4, "frac": 0.5}}, "frac"),
            ("bounds", {"alpha": 0.5, "alhpa": 0.7}, "alhpa"),
            # the three below ran with the key ignored before
            ("weightings", [{"kind": "identity", "alpha": 0.5}], "alpha"),
            ("weightings", [{"kind": "prelec", "alpha": 0.5, "beta": 2}], "beta"),
            ("distribution", {"type": "powerlaw", "d_min": 1, "d_max": 10, "beta": 3.0, "x": 1}, "'x'"),
            ("cost", {"start": 0.2, "stop": 0.8, "steps": 3, "x": 1}, "'x'"),
        ],
        ids=["dynamics", "dynamics-state", "bounds", "identity", "prelec", "distribution", "cost"],
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


class TestBadValueProperty:
    """One bad value at one key path of a valid scenario exits 2 as a ScenarioError.

    Every block is present, so each path is read by the command run on it,
    and no other exception type may escape.  The one exception is a
    non-finite ``dynamics.p0``: the integrator's own range check names
    ``p0`` as a ValueError (``test_nan_p0_is_named``).
    """

    BASE = {
        "distribution": {"type": "powerlaw", "d_min": 2, "d_max": 10, "beta": 3.0},
        "delta": 1.0,
        "weightings": [{"kind": "identity"}, {"kind": "prelec", "alpha": 0.5}],
        "cost": {"start": 0.2, "stop": 0.8, "steps": 3},
        "dynamics": {"p0": [0.5] * 9, "t_end": 1.0, "dt": 0.5, "sample_stride": 1, "state": {"threshold": 4, "fraction": 0.05}},
        "bounds": {"alpha": 0.5},
    }
    # path: (command, integer key, None is refused); a path into "mass" reads
    # an explicit distribution, and the "mass" path itself takes a bad degree key
    PATHS = {
        ("distribution", "d_min"): ("pne", True, True),
        ("distribution", "d_max"): ("pne", True, True),
        ("distribution", "beta"): ("pne", False, True),
        ("distribution", "mass"): ("pne", None, False),
        ("distribution", "mass", "4"): ("pne", False, True),
        ("delta",): ("pne", False, True),
        ("weightings", 1, "alpha"): ("pne", False, True),
        ("cost",): ("pne", False, True),
        ("cost", "start"): ("pne", False, True),
        ("cost", "stop"): ("pne", False, True),
        ("cost", "steps"): ("pne", True, True),
        ("dynamics", "p0"): ("dynamics", False, True),
        ("dynamics", "p0", 0): ("dynamics", False, True),
        ("dynamics", "t_end"): ("dynamics", False, True),
        ("dynamics", "dt"): ("dynamics", False, False),
        ("dynamics", "sample_stride"): ("dynamics", True, True),
        ("dynamics", "state", "threshold"): ("dynamics", True, False),
        ("dynamics", "state", "fraction"): ("dynamics", False, False),
        ("bounds", "alpha"): ("bounds", False, False),
    }

    @staticmethod
    @st.composite
    def cases(draw):
        """A key path and the bad value to put there."""
        path = draw(st.sampled_from(sorted(TestBadValueProperty.PATHS, key=str)))
        _, integer, required = TestBadValueProperty.PATHS[path]
        if integer is None:
            degree = draw(st.one_of(st.integers(min_value=2**63), st.integers(max_value=-(2**63) - 1)))
            return path, {str(degree): 1.0}
        values = [
            st.booleans(),
            st.text(max_size=5),
            st.lists(st.floats(0, 1), max_size=2),
            st.dictionaries(st.text(max_size=3), st.floats(0, 1), max_size=2),
            st.integers(min_value=2**1024, max_value=BIG),
            st.integers(min_value=-BIG, max_value=-(2**1024)),
            st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        ]
        if required:
            values.append(st.none())
        if integer:
            values.append(st.floats(allow_nan=False, allow_infinity=False))
        return path, draw(st.one_of(values))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=cases())
    def test_one_bad_value_exits_2(self, tmp_path_factory, case):
        path, value = case
        obj = json.loads(json.dumps(self.BASE))
        if "mass" in path:
            obj["distribution"] = {"type": "explicit", "mass": {"2": 0.5, "4": 0.5}}
        node = obj
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        tmp_path = tmp_path_factory.mktemp("bad")
        out = tmp_path / "o.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["solve", self.PATHS[path][0], "--scenario", write_scenario(tmp_path, obj), "--out", str(out)])
        assert rc == 2 and not out.exists(), (path, value)
        err = json.loads(err.getvalue())
        if path[:2] == ("dynamics", "p0") and err["error"] == "ValueError":
            assert "p0" in err["message"] and not math.isfinite(value), (path, value, err)
        else:
            assert err["error"] == "ScenarioError" and path[0] in err["message"], (path, value, err)
