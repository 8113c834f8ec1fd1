"""Run every workload over ten seeds and report run-to-run spread.

For each workload and end-to-end metric this prints the median of the
per-run values and the spread (p75 - p25) / median, with quartiles from
``run.quartiles`` (``statistics.quantiles(values, n=4)``), next to the
metric's bound in BENCHMARK.json.  With ``--out`` the runs, their
environment and one traced run per workload are saved as JSON; the two
committed sets were made with::

    python3 bench/stability.py --out bench/results/baseline.json                  # seeds 0-9
    python3 bench/stability.py --first-seed 10 --out bench/results/repeat.json   # seeds 10-19
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_work" / workload / "result.json").read_text(encoding="utf-8"))
    return {
        "seed": seed,
        "trace": trace,
        "result": result,
        "environment": record["environment"],
        "job_s_samples": record["job_s_samples"],
        "job_wall_s_samples": record["job_wall_s_samples"],
        "traced_job_s_samples": record["traced_job_s_samples"],
        "setup_s_samples": record["setup_s_samples"],
        "setup_wall_s_samples": record["setup_wall_s_samples"],
    }


def spread(values):
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "p25": q1, "p75": q3, "spread": (q3 - q1) / q2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", help="write the runs and spreads to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = range(args.first_seed, args.first_seed + SEEDS)
        runs = [one_run(workload, s, spec["run_seconds"], 0) for s in seeds]
        spreads = {}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            spreads[metric["name"]] = {**spread(values), "bound": metric["bound"]}
            s = spreads[metric["name"]]
            print(
                f"{workload:9s} {metric['name']:12s} median {s['median']:.6g} {metric['unit']}"
                f"  spread {s['spread']:.4f}  bound {metric['bound']}"
                f"  {'ok' if s['spread'] < metric['bound'] / 3 else 'WIDE'}",
                flush=True,
            )
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload:9s} failed operations: {failed}", flush=True)
        entry = {"runs": runs, "spreads": spreads, "failed": failed}
        if args.out:
            entry["traced_run"] = one_run(workload, args.first_seed, spec["run_seconds"], 1)
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
