"""The benchmark's tracer still finds every name it patches.

``bench/tracing.py`` wraps module-level names of the package.  A refactor
that renames or drops one of them breaks the traced benchmark run, so this
test installs the tracer, runs one traced job through the CLI and checks
that the counters saw the solver layers and that every patch is undone.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from tracing import Tracer, per_layer_metrics  # noqa: E402

import vaxgame.cli as cli  # noqa: E402


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
    assert patched
    for owner, attr, original, item in patched:
        current = owner[attr] if item else getattr(owner, attr)
        assert current is original, attr
