"""vaxgame benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {sweep,planner,dynamics} --seed N \\
        --seconds S --trace {0,1} [--scale {full,smoke}]

Run from any directory; paths are resolved from this file, so the
checkout holding ``bench/`` and ``src/vaxgame`` is the one measured.  The
parent process writes the seeded inputs into ``.bench_work/WORKLOAD/``,
runs the workload's job in one fresh child process at least ``MIN_JOBS``
times and for about S seconds, and (untraced runs only) times
``SETUP_REPEATS`` fresh interpreters loading the inputs, half of them
before the jobs and half after.  Child processes get
PYTHONPATH=src and BLAS thread counts pinned to one and run one at a
time, so the load stays at one busy core.  Job and set-up times are
reported at a reference machine speed (``speed.py``); their wall times
are printed and kept beside them.  The parent then checks the
outputs (``checks.py``) and prints every metric as ``metric NAME = VALUE
UNIT`` lines followed by one JSON result line.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
(see README.md for which end-to-end metric each should move).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_job0, check_sample, compare_reference
from inputs import DEFAULT_SEED, SCALES, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 25
MIN_JOBS = 3
DEADLINE_S = 170.0  # the whole run, set-up probes and checks included
CHECK_RESERVE_S = 25.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
NOTE = (
    "no layer has queues or waits: vaxgame runs single-threaded in one "
    "process, so no wait times are reported"
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "vaxgame").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    return {
        "git_sha": _git_sha(ROOT),
        "src_sha256": _src_sha256(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "load1_start": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in PINNED_THREADS:
        env[name] = "1"
    return env


def _child(argv, timeout) -> str:
    cmd = [sys.executable, str(HERE / "child.py"), *argv]
    try:
        proc = subprocess.run(
            cmd, env=_child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child {argv[0]} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"child {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def quartiles(values):
    """(p25, median, p75) as ``statistics.quantiles(values, n=4)`` gives them.

    This is the estimator a benchmark's run-to-run spread is judged by;
    ``stability.py`` uses it too.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def account(workload, inputs, jobs, reference):
    """Charge every problem to its operation; returns (attempted, failures, figures)."""
    batch = []
    if "batch.json" in inputs:
        batch = json.loads(Path(inputs["batch.json"]).read_text(encoding="utf-8"))
    first = jobs[0]
    cli_problems, figures = check_job0(workload, inputs, first)
    if reference:
        for op, found in compare_reference(workload, first["artifacts"], first["ops"]).items():
            cli_problems.setdefault(op, []).extend(found)
    digests = {op: info["sha256"] for op, info in first["artifacts"].items()}
    attempted = 0
    failures = []
    gaps = [0.0]
    for job in jobs:
        for op in job["ops"]:
            attempted += 1
            name = op["op"]
            if name.startswith("sample"):
                found, fig = check_sample(batch[int(name[6:])], op)
                gaps.append(fig.get("ode_gap", 0.0))
                if job is first:
                    found = found + cli_problems.get(name, [])
            elif job is first:
                found = cli_problems[name]
            else:
                found = [] if op["rc"] == 0 else [op["error"] or f"exit code {op['rc']}"]
                if job["artifacts"].get(name, {}).get("sha256") != digests.get(name):
                    found.append("artifact differs from job 0's")
            if found:
                failures.append({"job": job["job"], "op": name, "problems": found})
    figures["max_ode_gap"] = max(gaps)
    return attempted, failures, figures


def end_to_end(jobs, setup, child) -> dict:
    return {
        "job_s": statistics.median(j["job_s"] for j in jobs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
    }


def per_layer(jobs, figures) -> dict:
    traced = [j for j in jobs if j["traced"]]
    metrics = {
        key: statistics.median(j["per_layer"][key] for j in traced) for key in traced[0]["per_layer"]
    }
    for key in ("sys_s", "minor_faults"):
        metrics[f"os.{key}"] = statistics.median(j[key] for j in traced)
    metrics["dbmf.max_ode_gap"] = figures["max_ode_gap"]
    # job 0 is untraced and cold (on planner it pays ~1.5 million page
    # faults that later jobs do not), so it is left out of the comparison
    metrics["trace_overhead_s"] = statistics.median(j["job_s"] for j in traced) - statistics.median(
        j["job_s"] for j in jobs[1:] if not j["traced"]
    )
    return metrics


def run(args, spec) -> dict:
    start = time.perf_counter()
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    out.mkdir(parents=True)
    env = environment(args)
    inputs = write_inputs(args.workload, args.seed, args.scale, work / "inputs")

    def probe_setup(n):
        if args.trace:
            return []
        lines = [_child(["setup", args.workload, str(work / "inputs")], DEADLINE_S / 4) for _ in range(n)]
        return [json.loads(line.strip().splitlines()[-1]) for line in lines]

    # half the set-up probes before the jobs and half after, so that one
    # slow spell of the machine does not set the whole median
    setup = probe_setup(SETUP_REPEATS // 2)
    budget = DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - start)
    argv = ["jobs", args.workload, str(work / "inputs"), str(out), str(args.seconds), str(MIN_JOBS)]
    _child(argv + [str(args.trace)], budget)
    setup += probe_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
    child = json.loads((out / "child.json").read_text(encoding="utf-8"))
    jobs = child["jobs"]
    setup_wall = [s["wall_s"] for s in setup]
    setup = [s["setup_s"] for s in setup]
    reference = args.seed == DEFAULT_SEED and args.scale == "full"
    attempted, failures, figures = account(args.workload, inputs, jobs, reference)
    env["load1_end"] = os.getloadavg()[0]
    env["jobs"] = len(jobs)
    env["setup_repeats"] = len(setup)

    if args.trace:
        values = per_layer(jobs, figures)
        listed = spec["per_layer"]
    else:
        values = end_to_end(jobs, setup, child)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    times = [j["job_s"] for j in jobs if not j["traced"]]
    record = {
        "environment": env,
        "job_s_samples": times,
        "job_wall_s_samples": [j["wall_s"] for j in jobs if not j["traced"]],
        "traced_job_s_samples": [j["job_s"] for j in jobs if j["traced"]],
        "setup_s_samples": setup,
        "setup_wall_s_samples": setup_wall,
        "figures": figures,
        "failures": failures,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "reference_checked": bool(reference),
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def report(record):
    env = record["environment"]
    print(
        f"vaxgame benchmark: workload={env['workload']} seed={env['seed']} "
        f"seconds={env['seconds']} trace={env['trace']} scale={env['scale']}"
    )
    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    print(f"note: {NOTE}")
    for name in ("job_s", "job_wall_s", "setup_s", "setup_wall_s"):
        sample = record[f"{name}_samples"]
        if sample:
            p25, p50, p75 = quartiles(sample)
            print(f"samples {name}: median {p50:.6g} s, p25 {p25:.6g} s, p75 {p75:.6g} s, n={len(sample)}")
    for name, metric in record["metrics"].items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    print(f"metric failed_frac = {record['failed_frac']!r} ratio ({record['failed']}/{record['attempted']})")
    for failure in record["failures"][:20]:
        print(f"FAILED job {failure['job']} {failure['op']}: {'; '.join(failure['problems'])}")
    checked = "yes" if record["reference_checked"] else "no (not the default seed)"
    print(f"reference outputs checked: {checked}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vaxgame" / "__init__.py").is_file():
        print(f"error: no vaxgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        record = run(args, spec)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
