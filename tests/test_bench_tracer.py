"""The benchmark's tracer still finds every name it patches.

``bench/tracing.py`` wraps module-level names of the package.  A refactor
that renames or drops one of them breaks the traced benchmark run, so
these tests install the tracer, run traced jobs the way the benchmark
does and check that the counters saw the solver layers and that every
patch is undone.  A refactor of the RK4 driver that stopped looking
``_ode_rhs`` up as a global would zero the step counts, so the dynamics
job checks them against the trajectory it wrote.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from tracing import Tracer, per_layer_metrics  # noqa: E402

import vaxgame.cli as cli  # noqa: E402
import vaxgame.dbmf as dbmf  # noqa: E402
from vaxgame import EpidemicParams, SocialState, explicit  # noqa: E402


def test_traced_job_counts_layers_and_uninstalls(tmp_path):
    tracer = Tracer()
    try:
        # inside the try: a name missing halfway through install still
        # gets the patches made before it undone
        tracer.install()
        patched = list(tracer._patches)
        tracer.job = 0
        scenario = str(ROOT / "scenarios" / "single_degree.json")
        for what in ("pne", "opt"):
            out = str(tmp_path / f"{what}.csv")
            assert cli.main(["solve", what, "--scenario", scenario, "--out", out]) == 0
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(tracer, 0, job_s=1.0, artifact_bytes=0)
    assert metrics["game.solve_pne.calls"] > 0
    assert metrics["planner.social_cost.calls"] > 0
    # spanned through cli.SocialOptimumSolver.solve: a planner path that
    # bypassed it would leave the traced planner layer reading zero
    assert metrics["planner.first_solve_s"] > 0
    assert patched
    for owner, attr, original, item in patched:
        current = owner[attr] if item else getattr(owner, attr)
        assert current is original, attr


def test_traced_dynamics_counts_rk4_steps(tmp_path):
    scenario = tmp_path / "dynamics.json"
    obj = {
        "distribution": {"type": "powerlaw", "d_min": 1, "d_max": 10, "beta": 3.0},
        "delta": 2.0,
        "dynamics": {"p0": 0.5, "t_end": 0.5, "sample_stride": 10, "state": {"threshold": 4}},
    }
    scenario.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "dynamics.csv"
    params = EpidemicParams(2.0, explicit({2: 0.5, 5: 0.5}))
    tracer = Tracer()
    try:
        tracer.install()
        tracer.job = 0
        assert cli.main(["solve", "dynamics", "--scenario", str(scenario), "--out", str(out)]) == 0
        # the benchmark's batch calls the settle through the module, as here
        tracer.job = 1
        dbmf.settle_dbmf(params, SocialState(params.distribution, params.distribution.mass))
    finally:
        tracer.uninstall()
    # 0.5 / (0.01 / delta) = 100 steps; the last row is the last step
    steps = 100
    assert float(out.read_text().splitlines()[-1].split(",")[0]) == steps * (0.01 / 2.0)
    dense = per_layer_metrics(tracer, 0, job_s=1.0, artifact_bytes=0)
    assert dense["dbmf.integrate_dbmf.steps"] == steps
    assert dense["dbmf.rhs_evals"] == 4 * steps
    assert dense["dbmf.settle_dbmf.calls"] == 0
    assert dense["cli.write_self_s"] > 0.0
    settle = per_layer_metrics(tracer, 1, job_s=1.0, artifact_bytes=0)
    assert settle["dbmf.settle_dbmf.calls"] == 1
    assert settle["dbmf.integrate_dbmf.steps"] == 0
    assert settle["dbmf.rhs_evals"] > 0 and settle["dbmf.rhs_evals"] % 4 == 0


def test_traced_load_spans_power_law():
    # the reader calls degree.power_law through the module; one that
    # imported the name would bypass the patch and read 0 here
    tracer = Tracer()
    try:
        tracer.install()
        tracer.job = 0
        cli.load_scenario(str(ROOT / "scenarios" / "powerlaw_d100.json"))
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(tracer, 0, job_s=1.0, artifact_bytes=0)
    assert metrics["degree.power_law_s"] > 0
    assert metrics["cli.load_scenario_s"] > 0
