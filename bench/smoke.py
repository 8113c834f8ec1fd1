"""Smoke self-test of the benchmark harness.

Runs every workload at minimal size, untraced and traced, through
``run.py`` with the same arguments a benchmark run uses, and asserts that the
result line names every BENCHMARK.json metric with its unit, that each
metric also has its ``metric NAME = VALUE UNIT`` line, and that no
operation failed.  Exits non-zero on the first problem::

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, spec: dict) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    expected = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in expected}:
        raise AssertionError(f"{label}: metric names differ from BENCHMARK.json")
    for m in expected:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{label}: {m['name']} = {got}")
        pattern = rf"^metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$"
        if not any(re.match(pattern, line) for line in lines):
            raise AssertionError(f"{label}: no printed line for {m['name']}")
    if not any(line.startswith("metric failed_frac = 0.0 ") for line in lines):
        raise AssertionError(f"{label}: failed_frac is not 0")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: {result['failed']}/{result['attempted']} operations failed")
    print(f"ok {label}: {result['attempted']} operations, {len(expected)} metrics")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
