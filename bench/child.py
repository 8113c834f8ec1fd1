"""Benchmark child process: the only process that imports vaxgame.

Run by ``bench/run.py`` in a fresh interpreter with PYTHONPATH set to the
checkout's ``src`` and BLAS threads pinned to one::

    python3 bench/child.py setup WORKLOAD INPUTS_DIR
    python3 bench/child.py jobs WORKLOAD INPUTS_DIR OUT_DIR SECONDS MIN_JOBS TRACE

``setup`` prints the time from ``import vaxgame`` to a loaded scenario as
one JSON line.  ``jobs`` runs at least MIN_JOBS jobs,
then starts another only while it is expected (at the median job time so
far) to end within SECONDS of the first job's start, and writes
``OUT_DIR/child.json``.  With TRACE=1 every second job (the 2nd, 4th,
...) runs with the tracer installed; the others give the untraced times
the tracing overhead is measured against.

Every timed region runs under a ``speed.SpeedProbe``: its time is reported
both as wall time and rescaled to the reference machine speed, and the
rescaled time is what ``job_s`` and ``setup_s`` report.

All jobs of a run share this one process.  The first job pays the page
faults of the first heap growth (on ``planner`` about 1.5 million, some
20% of the job), later jobs reuse the heap; the median over the jobs
keeps one cold job from setting ``job_s``.
"""

import json
import os
import sys
import time

# only what ``setup`` needs is imported here; the jobs mode's own modules are
# imported in jobs(), and the timed part of ``setup`` is prepare() alone, so
# the set-up probe times vaxgame and not the harness
from speed import SpeedProbe

# set-up takes about 0.1 s: probe often enough to track the machine's speed
SETUP_PROBE_PERIOD_S = 0.01

SCENARIO = {"sweep": "sweep.json", "planner": "planner.json", "dynamics": "dynamics.json"}
# the `vaxgame solve` commands of one job, in order; each is one operation
COMMANDS = {"sweep": ["pne", "bounds"], "planner": ["opt"], "dynamics": ["dynamics"]}


def prepare(workload, inputs_dir):
    """Import vaxgame and build the job's inputs: the set-up a user pays."""
    import vaxgame
    from vaxgame.cli import load_scenario

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(vaxgame.__file__).startswith(src + os.sep):
        raise SystemExit(f"vaxgame imported from {vaxgame.__file__}, not from {src}")
    scenario = os.path.join(inputs_dir, SCENARIO[workload])
    load_scenario(scenario)
    batch = []
    if workload == "dynamics":
        with open(os.path.join(inputs_dir, "batch.json"), encoding="utf-8") as fh:
            for s in json.load(fh):
                dist = vaxgame.DegreeDistribution(s["degrees"], s["mass"])
                params = vaxgame.EpidemicParams(s["delta"], dist)
                state = vaxgame.SocialState(dist, s["unprotected"])
                batch.append((params, state, s["p0"]))
    return scenario, batch


def run_job(workload, scenario, batch, out_dir, k):
    """One complete job; returns (operations, artifact paths)."""
    import contextlib
    import io

    import vaxgame.cli
    import vaxgame.dbmf

    ops = []
    # names are looked up at call time so the tracer's wrappers apply
    for i, (params, state, p0) in enumerate(batch):
        try:
            es = vaxgame.dbmf.endemic_state(params, state)
            settled = vaxgame.dbmf.settle_dbmf(params, state, p0=p0)
            ops.append({"op": f"sample{i}", "v": es.v, "residual": es.residual, "settled": settled})
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            ops.append({"op": f"sample{i}", "error": f"{type(exc).__name__}: {exc}"})
    artifacts = {}
    for op in COMMANDS[workload]:
        out = os.path.join(out_dir, f"job{k}-{op}.csv")
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                rc = vaxgame.cli.main(["solve", op, "--scenario", scenario, "--out", out])
            ops.append({"op": op, "rc": rc, "error": err.getvalue().strip()})
        except Exception as exc:  # noqa: BLE001
            ops.append({"op": op, "rc": None, "error": f"{type(exc).__name__}: {exc}"})
        artifacts[op] = out
    return ops, artifacts


def _digest(path):
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def peak_rss_kb():
    """This process's resident high-water mark, in KiB.

    ``VmHWM`` belongs to the address space made at exec, so unlike
    ``ru_maxrss`` (which Linux carries over exec from the parent's
    address space) it cannot read below the parent's resident set.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def jobs(workload, inputs_dir, out_dir, seconds, min_jobs, trace):
    """Repeat the job for about SECONDS and write ``OUT_DIR/child.json``."""
    import resource
    import statistics

    scenario, batch = prepare(workload, inputs_dir)
    tracer = None
    if trace:
        from tracing import Tracer, dump_spans, per_layer_metrics

        tracer = Tracer()
    records = []
    start = time.perf_counter()
    # start another job only while it is expected to end within SECONDS
    while len(records) < min_jobs or (
        time.perf_counter() - start + statistics.median(r["wall_s"] for r in records) <= seconds
    ):
        k = len(records)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.job = k
            tracer.install()
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            with SpeedProbe() as probe:
                ops, artifacts = run_job(workload, scenario, batch, out_dir, k)
        finally:
            t1 = time.perf_counter()
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            if traced:
                tracer.uninstall()
        # everything below is outside the timed job
        for op in ops:
            if "settled" in op:
                op["settled"] = [float(p) for p in op["settled"]]
        files = {}
        for op, path in artifacts.items():
            if os.path.exists(path):
                files[op] = {"path": path, "bytes": os.path.getsize(path), "sha256": _digest(path)}
                if k > 0:  # later jobs are compared to job 0 by digest only
                    os.remove(path)
        record = {
            "job": k,
            "traced": traced,
            "job_s": probe.scaled_s(),
            "wall_s": probe.wall_s(),
            "probes": len(probe.samples),
            "sys_s": r1.ru_stime - r0.ru_stime,
            "minor_faults": r1.ru_minflt - r0.ru_minflt,
            "ops": ops,
            "artifacts": files,
        }
        if traced:
            size = sum(f["bytes"] for f in files.values())
            record["per_layer"] = per_layer_metrics(tracer, k, t1 - t0, size)
        records.append(record)
    result = {"jobs": records, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        dump_spans(tracer, os.path.join(out_dir, "spans.tsv"))
    with open(os.path.join(out_dir, "child.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    if argv[0] == "setup":
        with SpeedProbe(SETUP_PROBE_PERIOD_S) as probe:
            prepare(argv[1], argv[2])
        print(json.dumps({"setup_s": probe.scaled_s(), "wall_s": probe.wall_s()}))
    elif argv[0] == "jobs":
        workload, inputs_dir, out_dir, seconds, min_jobs, trace = argv[1:7]
        jobs(workload, inputs_dir, out_dir, float(seconds), int(min_jobs), trace == "1")
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
