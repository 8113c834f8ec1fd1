"""The forked trajectory writer: the in-process sink's bytes, and no child left behind.

The tests that expect a fork make ``os.sched_getaffinity`` report two
CPUs, so the writer forks on any host with ``os.fork``.
"""

import errno
import json
import os
import signal
import threading
import warnings

import numpy as np
import pytest
from conftest import WriteOnly, assert_no_child, count_forks, set_cpus

from vaxgame.cli import _TableSink, cmd_dynamics, load_scenario, main
from vaxgame.dbmf import BLOCK_ROWS
from vaxgame.forking import ForkedWriter

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def table(rows):
    """Seeded rows: the time, then values in and out of csvtext's fast range, zeros among them."""
    data = np.random.default_rng(rows).random((rows, 12))
    data[:, 0] = np.arange(rows) * 0.005
    data[::7, 1] = 0.0
    data[::5, 2] *= 1e-6
    return data


def header(data):
    return ["t"] + [f"p_{d}" for d in range(1, data.shape[1])]


def stream(sink, data):
    """Pass ``data`` to ``sink`` as the integrator does: 64-row blocks of one reused buffer."""
    buffer = np.empty((BLOCK_ROWS, data.shape[1]))
    with sink:
        for start in range(0, len(data), BLOCK_ROWS):
            rows = len(data[start : start + BLOCK_ROWS])
            buffer[:rows] = data[start : start + rows]
            sink(buffer[:rows])


def dynamics_scenario(tmp_path, d_max, **dynamics):
    obj = {
        "distribution": {"type": "powerlaw", "d_min": 1, "d_max": d_max, "beta": 3.0},
        "delta": 2.0,
        "dynamics": dict({"p0": 0.5, "state": {"threshold": 2}}, **dynamics),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def in_process(scenario, fmt):
    out = WriteOnly()
    cmd_dynamics(load_scenario(scenario), out, fmt)
    return out.text().encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [1, 63, 64, 65, 129, 6001])
def test_forked_and_in_process_sinks_write_the_same_bytes(tmp_path, monkeypatch, fmt, rows):
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    data = table(rows)
    out = tmp_path / f"table.{fmt}"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        stream(ForkedWriter(_TableSink(fh, fmt, header(data))), data)
    here = WriteOnly()
    stream(_TableSink(here, fmt, header(data)), data)
    assert forks() == 1
    assert_no_child()
    assert out.read_bytes() == here.text().encode("utf-8")
    if fmt == "csv":
        assert np.array_equal(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2), data)
    else:
        assert len(json.loads(out.read_bytes())) == rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failed_fork_formats_here(tmp_path, monkeypatch, fmt):
    def fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    data = table(129)
    out = tmp_path / f"table.{fmt}"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        stream(ForkedWriter(_TableSink(fh, fmt, header(data))), data)
    here = WriteOnly()
    stream(_TableSink(here, fmt, header(data)), data)
    assert out.read_bytes() == here.text().encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sampled_trajectory_is_the_same_forked_or_not(tmp_path, monkeypatch, fmt):
    # 601 steps, the start, every 7th step and the last: 87 rows, two blocks;
    # on one CPU the writer does not fork and the trajectory is formatted here
    scenario = dynamics_scenario(tmp_path, 10, t_end=3.005, dt=0.005, sample_stride=7)
    forks = count_forks(monkeypatch)
    out = tmp_path / f"dyn.{fmt}"
    for cpus, forked in [(2, 1), (1, 1)]:  # forks counted so far
        set_cpus(monkeypatch, cpus)
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", str(out), "--format", fmt]) == 0
        assert forks() == forked
        assert_no_child()
        assert out.read_bytes() == in_process(scenario, fmt)


class Probe:
    """A Python SIGALRM handler on a 1 ms ITIMER_REAL, as the bench's speed probe runs one.

    Each signal that lands during a blocking pipe write can end that write
    early, with only part of a frame sent.  With ``raise_at``, the handler
    raises :class:`Interrupted` at that call.
    """

    def __init__(self, raise_at=None):
        self.calls = 0
        self.raise_at = raise_at

    def handle(self, *_signal_args):
        self.calls += 1
        if self.calls == self.raise_at:
            raise Interrupted("interrupted")

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.handle)
        signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self.previous)


class Interrupted(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no setitimer")
def test_frames_survive_a_1ms_sigalrm(tmp_path, monkeypatch):
    # 6,001 rows x 101 floats: each 64-row frame is 52 KB, near a pipe's 64 KB
    scenario = dynamics_scenario(tmp_path, 100, t_end=30.0, state={"threshold": 20})
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    out = tmp_path / "dyn.csv"
    with Probe() as probe:
        assert main(["solve", "dynamics", "--scenario", scenario, "--out", str(out)]) == 0
    assert forks() == 1 and probe.calls > 50
    assert_no_child()
    assert out.read_bytes() == in_process(scenario, "csv")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no setitimer")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_signal_that_raises_leaves_no_writer_and_no_artifact(tmp_path, monkeypatch, capsys, fmt):
    scenario = dynamics_scenario(tmp_path, 100, t_end=30.0, state={"threshold": 20})
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    directory = tmp_path / "out"
    directory.mkdir()
    out = directory / f"dyn.{fmt}"
    out.write_bytes(b"sentinel")
    # 50 ms in, the integrator is streaming: the writer forks at the first block, 64 steps in
    with Probe(raise_at=50):
        rc = main(["solve", "dynamics", "--scenario", scenario, "--out", str(out), "--format", fmt])
    assert rc == 2 and forks() == 1
    assert json.loads(capsys.readouterr().err) == {"error": "Interrupted", "message": "interrupted"}
    assert_no_child()
    assert out.read_bytes() == b"sentinel"
    assert [p.name for p in directory.iterdir()] == [out.name]


def test_the_fork_does_not_warn_of_threads(tmp_path, monkeypatch):
    # from Python 3.12 a fork in a multi-threaded process warns; this one is meant
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with open(tmp_path / "table.csv", "w", encoding="utf-8", newline="\n") as fh:
                data = table(65)
                stream(ForkedWriter(_TableSink(fh, "csv", header(data))), data)
    finally:
        done.set()
        thread.join()
    assert forks() == 1
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
