"""The cost split of the table commands: the serial run's bytes and errors, no child left.

``solve pne``, ``solve opt`` and ``solve bounds`` run their costs through
one path.  With two CPUs a forked child solves the odd-indexed costs
while the parent solves the even ones (``vaxgame.forking.interleave``);
``opt`` keeps its planner tables in each process.  The tests
make ``os.sched_getaffinity`` report two CPUs, or one, so they split, or
do not, on any host; one test reads the host's own CPUs.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from conftest import assert_no_child, count_forks, set_cpus

import vaxgame.bounds as bounds
import vaxgame.cli as cli
from vaxgame.cli import load_scenario, main
from vaxgame.forking import interleave

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
WITH_COSTS = [p for p in sorted(SCENARIOS.glob("*.json")) if "cost" in json.loads(p.read_text(encoding="utf-8"))]


def run(capsys, what, scenario, out, fmt="csv"):
    """Exit code, stderr and artifact bytes (None if none was written) of one ``solve`` command."""
    rc = main(["solve", what, "--scenario", str(scenario), "--out", str(out), "--format", fmt])
    data = out.read_bytes() if out.exists() else None
    if out.exists():
        out.unlink()
    return rc, capsys.readouterr().err, data


def forked_and_here(capsys, monkeypatch, tmp_path, what, scenario, fmt="csv"):
    """One run on two CPUs and one on one CPU; returns both results and the forks of the first."""
    out = tmp_path / f"{what}.{fmt}"
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    forked = run(capsys, what, scenario, out, fmt)
    split = forks()
    assert_no_child()
    set_cpus(monkeypatch, 1)
    here = run(capsys, what, scenario, out, fmt)
    assert forks() == split
    assert_no_child()
    return forked, here, split


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("what", ["pne", "opt", "bounds"])
@pytest.mark.parametrize("scenario", WITH_COSTS, ids=lambda p: p.stem)
def test_forked_and_in_process_runs_are_the_same(tmp_path, monkeypatch, capsys, scenario, what, fmt):
    # bounds refuses powerlaw_d100 (d_min = 1) and single_degree (no prelec):
    # the exit code and the stderr JSON must match as the bytes do
    forked, here, _ = forked_and_here(capsys, monkeypatch, tmp_path, what, scenario, fmt)
    assert forked == here


@pytest.mark.parametrize("what", ["pne", "opt", "bounds"])
def test_one_fork_per_command_on_two_cpus_none_on_one(tmp_path, monkeypatch, capsys, what):
    forked, here, split = forked_and_here(capsys, monkeypatch, tmp_path, what, SCENARIOS / "bounds_d500.json")
    assert split == 1 and forked == here and forked[0] == 0


def test_a_single_cost_is_solved_here(tmp_path, monkeypatch, capsys):
    forked, here, split = forked_and_here(capsys, monkeypatch, tmp_path, "pne", SCENARIOS / "single_degree.json")
    assert split == 0 and forked == here and forked[0] == 0


@pytest.mark.parametrize("what", ["pne", "opt", "bounds"])
def test_without_os_fork_the_costs_are_solved_here(tmp_path, monkeypatch, capsys, what):
    scenario = SCENARIOS / "bounds_d500.json"
    set_cpus(monkeypatch, 2)
    forked = run(capsys, what, scenario, tmp_path / "forked.csv")
    monkeypatch.delattr(os, "fork")
    assert run(capsys, what, scenario, tmp_path / "here.csv") == forked
    assert_no_child()


@pytest.mark.parametrize("cpus", [2, 1])
def test_without_sched_getaffinity_the_cpu_count_decides(tmp_path, monkeypatch, capsys, cpus):
    scenario = SCENARIOS / "bounds_d500.json"
    set_cpus(monkeypatch, 1)
    here = run(capsys, "pne", scenario, tmp_path / "here.csv")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    forks = count_forks(monkeypatch)
    assert run(capsys, "pne", scenario, tmp_path / "pne.csv") == here
    assert forks() == int(cpus >= 2)
    assert_no_child()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no os.sched_getaffinity")
def test_the_hosts_own_cpus_decide(tmp_path, monkeypatch, capsys):
    # unpatched: one fork where this process may run on two CPUs, as on the
    # CI runners, and none where it is pinned to one (taskset -c 0)
    forks = count_forks(monkeypatch)
    rc, _, data = run(capsys, "pne", SCENARIOS / "bounds_d500.json", tmp_path / "pne.csv")
    assert rc == 0 and data
    assert forks() == int(len(os.sched_getaffinity(0)) >= 2)
    assert_no_child()


def failing_certificate(monkeypatch, costs):
    """Make ``cli.verify_pne`` fail every weighting's certificate at ``costs``."""
    verify = cli.verify_pne

    def patched(spec, state):
        cert = verify(spec, state)
        return dataclasses.replace(cert, max_violation=0.5, passed=False) if spec.cost in costs else cert

    monkeypatch.setattr(cli, "verify_pne", patched)


@pytest.mark.parametrize("failing", [(3, 6), (2, 5)], ids=["child-first", "parent-first"])
@pytest.mark.parametrize("what", ["pne", "opt"])
def test_a_certificate_failure_in_each_half_is_the_serial_error(tmp_path, monkeypatch, capsys, what, failing):
    scenario = SCENARIOS / "powerlaw_d100.json"
    costs = load_scenario(str(scenario)).costs
    failing_certificate(monkeypatch, {costs[i] for i in failing})
    forked, here, split = forked_and_here(capsys, monkeypatch, tmp_path, what, scenario)
    assert split == 1 and forked == here
    rc, err, data = forked
    assert rc == 2 and data is None
    c = costs[min(failing)]
    assert json.loads(err) == {
        "error": "RuntimeError",
        "message": f"equilibrium certificate failed at c={c:g}, identity: violation 0.5",
    }


@pytest.mark.parametrize("failing", [(1, 2), (0, 3)], ids=["child-first", "parent-first"])
def test_a_bounds_failure_in_each_half_is_the_serial_error(tmp_path, monkeypatch, capsys, failing):
    scenario = SCENARIOS / "bounds_d500.json"
    costs = load_scenario(str(scenario)).costs
    solve = bounds.solve_pne

    def patched(spec, ladder=None):
        if spec.cost in [costs[i] for i in failing]:
            raise ArithmeticError(f"no equilibrium at c={spec.cost!r}")
        return solve(spec, ladder=ladder)

    monkeypatch.setattr(bounds, "solve_pne", patched)
    forked, here, split = forked_and_here(capsys, monkeypatch, tmp_path, "bounds", scenario)
    assert split == 1 and forked == here
    assert forked[0] == 2 and forked[2] is None
    c = costs[min(failing)]
    assert json.loads(forked[1]) == {"error": "ArithmeticError", "message": f"no equilibrium at c={c!r}"}


@pytest.mark.parametrize("count", [1, 2, 5, 8])
def test_the_odd_indices_are_solved_in_one_child(monkeypatch, count):
    set_cpus(monkeypatch, 2)
    parent = os.getpid()
    results = interleave(lambda i: (i, os.getpid()), count)
    assert [i for i, _ in results] == list(range(count))
    assert {pid for _, pid in results[::2]} == {parent}
    children = {pid for _, pid in results[1::2]}
    assert len(children) == min(1, count // 2) and parent not in children
    assert_no_child()


@pytest.mark.parametrize("failing", [{3, 6}, {2, 5}, {4}, {7}, {0, 1}])
def test_the_lowest_failing_index_is_raised(monkeypatch, failing):
    set_cpus(monkeypatch, 2)

    def solve(i):
        if i in failing:
            raise LookupError(i)
        return i

    with pytest.raises(LookupError) as info:
        interleave(solve, 9)
    assert info.value.args == (min(failing),)
    assert_no_child()


def test_a_failed_fork_solves_every_index_here(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    assert interleave(lambda i: (i, os.getpid()), 4) == [(i, os.getpid()) for i in range(4)]


def test_a_child_ended_by_a_signal_is_an_error(monkeypatch):
    set_cpus(monkeypatch, 2)

    def solve(i):
        if i == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(RuntimeError, match="cost solver ended by signal 9"):
        interleave(solve, 6)
    assert_no_child()


class Interrupted(BaseException):
    pass


@contextmanager
def deadline(seconds):
    """Raise :class:`TimeoutError` in this process if the block runs past ``seconds``."""

    def expire(*_signal_args):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no setitimer")
def test_a_child_error_larger_than_a_pipe_comes_back_whole(monkeypatch):
    # 1 MB does not fit in a pipe: the child can send it only while the
    # parent reads, and the parent reads it to end of file before the wait
    set_cpus(monkeypatch, 2)
    payload = os.urandom(1 << 20)

    def solve(i):
        if i == 1:
            raise LookupError(payload)
        return i

    with deadline(20), pytest.raises(LookupError) as info:
        interleave(solve, 4)
    assert info.value.args == (payload,)
    assert_no_child()


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no setitimer")
def test_a_large_convergence_error_exits_as_on_one_cpu(tmp_path, monkeypatch, capsys):
    # d_max = 20,000: the error pickles its best state, 20,000 floats of it,
    # more than a pipe holds; the cost split hung on two CPUs before.  With
    # prelec(0.05), w^{-1}(c) rounds to 1 at these costs, so the equilibrium
    # is the top rung, whose 20,000-wide root solve fails at delta = 1e-70
    scenario = tmp_path / "scenario.json"
    obj = {
        "distribution": {"type": "powerlaw", "d_min": 1, "d_max": 20000, "beta": 3},
        "delta": 1e-70,
        "weightings": [{"kind": "prelec", "alpha": 0.05}],
        "cost": {"start": 0.9, "stop": 0.95, "steps": 4},
    }
    scenario.write_text(json.dumps(obj), encoding="utf-8")
    with deadline(60):
        forked, here, split = forked_and_here(capsys, monkeypatch, tmp_path, "pne", scenario)
    assert split == 1 and forked == here
    rc, err, data = forked
    assert rc == 2 and data is None
    assert json.loads(err)["error"] == "ConvergenceError"


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not to be pickled")


class Unrebuildable(Exception):
    # pickled by its args alone, so unpickling calls it with one argument
    def __init__(self, message, _detail):
        super().__init__(message)


@pytest.mark.parametrize(
    "make", [Unpicklable, lambda message: Unrebuildable(message, None)], ids=["unpicklable", "unrebuildable"]
)
def test_a_child_exception_that_does_not_pickle_is_the_serial_error(monkeypatch, make):
    # these came back as RuntimeError("Unpicklable: at 3") and as a
    # TypeError of the parent's unpickling before
    set_cpus(monkeypatch, 2)

    def solve(i):
        if i in (3, 5):
            raise make(f"at {i}")
        return i

    expected = make("at 3")
    with pytest.raises(type(expected)) as info:
        interleave(solve, 8)
    assert type(info.value) is type(expected) and info.value.args == expected.args
    assert_no_child()


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no setitimer")
def test_a_failure_here_does_not_wait_for_the_child(monkeypatch):
    # the parent waited for the child's whole half, 60 s of it, before
    set_cpus(monkeypatch, 2)
    parent = os.getpid()

    def solve(i):
        if os.getpid() != parent:
            time.sleep(30)  # only the kill ends this in time
        if i == 0:
            raise LookupError(i)
        return i

    with deadline(10), pytest.raises(LookupError) as info:
        interleave(solve, 4)
    assert info.value.args == (0,)
    assert_no_child()


def test_an_interrupt_in_the_parent_kills_the_child(monkeypatch):
    set_cpus(monkeypatch, 2)
    parent = os.getpid()

    def solve(i):
        if os.getpid() == parent:
            raise Interrupted
        time.sleep(30)  # only the kill ends this in time

    start = time.perf_counter()
    with pytest.raises(Interrupted):
        interleave(solve, 4)
    assert time.perf_counter() - start < 10
    assert_no_child()


def test_an_interrupt_while_the_child_sends_a_large_error_is_raised(monkeypatch):
    # the child is killed part way through a 1 MB exception, which must not be unpickled
    set_cpus(monkeypatch, 2)
    parent = os.getpid()

    def solve(i):
        if os.getpid() == parent:
            time.sleep(0.5)
            raise Interrupted
        raise LookupError(os.urandom(1 << 20))

    with pytest.raises(Interrupted):
        interleave(solve, 4)
    assert_no_child()


BLAS_FIRST = """
import os, sys
import numpy as np
from vaxgame.cli import main

a = np.ones((300, 300))
a @ a  # the parent runs BLAS, with its thread pool, before the fork
os.sched_getaffinity = lambda _pid: {0, 1}
fork, forks = os.fork, []

def counted():
    forks.append(1)
    return fork()

os.fork = counted
rc = main(["solve", "pne", "--scenario", sys.argv[1], "--out", sys.argv[2]])
print(rc, len(forks))
"""


def test_a_fork_after_the_parent_started_blas_threads(tmp_path):
    # the parent is multi-threaded when the cost split forks; the child
    # calls no BLAS itself, but must neither hang nor write other bytes
    out = tmp_path / "pne.csv"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=path)
    scenario = SCENARIOS / "powerlaw_d100.json"
    result = subprocess.run(
        [sys.executable, "-c", BLAS_FIRST, str(scenario), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.stdout.split() == ["0", "1"], result.stderr
    assert out.read_bytes() == (ROOT / "tests" / "golden" / "exact" / "powerlaw_d100_pne.csv").read_bytes()
