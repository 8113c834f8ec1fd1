"""The benchmark's default-seed reference check, run inside the test suite.

``bench/checks.py`` holds every default-seed artifact to the outputs in
``bench/reference/`` within REL 1e-9 and ABS 1e-12.  A change that moves a
number by more than that fails the benchmark; this test makes it fail here
first.  It writes the seed-0 ``full`` inputs of every workload with
``bench/inputs.py``, runs each workload's ``vaxgame solve`` commands
through :func:`vaxgame.cli.main`, solves the dynamics batch with
:func:`endemic_state`, and asks ``checks.compare_reference`` for problems.
Nothing under ``bench/`` is written.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import inputs  # noqa: E402
from child import COMMANDS, SCENARIO  # noqa: E402

from vaxgame import DegreeDistribution, EpidemicParams, SocialState, endemic_state  # noqa: E402
from vaxgame.cli import main  # noqa: E402
from vaxgame.game import CERT_TOL  # noqa: E402


def batch_ops(path):
    """One ``{"op": "sample<i>", "v": ...}`` per dynamics batch state, as the bench records them."""
    ops = []
    for i, s in enumerate(json.loads(Path(path).read_text(encoding="utf-8"))):
        dist = DegreeDistribution(s["degrees"], s["mass"])
        v = endemic_state(EpidemicParams(s["delta"], dist), SocialState(dist, s["unprotected"])).v
        ops.append({"op": f"sample{i}", "v": v})
    return ops


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_default_seed_matches_the_reference(workload, tmp_path):
    paths = inputs.write_inputs(workload, inputs.DEFAULT_SEED, "full", tmp_path / "inputs")
    artifacts = {}
    for op in COMMANDS[workload]:
        out = str(tmp_path / f"{op}.csv")
        assert main(["solve", op, "--scenario", paths[SCENARIO[workload]], "--out", out]) == 0
        artifacts[op] = {"path": out}
    ops = batch_ops(paths["batch.json"]) if workload == "dynamics" else []
    assert len(ops) == (50 if workload == "dynamics" else 0)
    problems = checks.compare_reference(workload, artifacts, ops)
    assert set(artifacts) <= set(problems)
    assert not any(problems.values()), problems


def test_certificate_tolerance_is_the_bench_gate():
    assert CERT_TOL == checks.CERT_TOL
