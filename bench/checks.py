"""Correctness gate of the benchmark, independent of the code under test.

Job 0's artifacts are checked in full against the invariants below; every
later job must reproduce job 0's artifacts byte for byte (the CLI's
determinism contract).  Each problem is charged to the operation that
produced it, so it counts into ``failed``.  Tolerances are no looser than
the test suite's:

- PNE certificate: best-response violation <= 1e-8 (``cmd_pne``'s gate),
  recomputed here with an own endemic solve, not with ``verify_pne``;
- planner: optimum social cost <= PNE social cost + 1e-9 in every row;
- bounds: every informative point inside both sandwiches
  (``all_informative_within``), thresholds equal to the PNE table's;
- dynamics batch: fixed-point residual <= 1e-10, |v_ode - v| <= 1e-6 for
  endemic states, max p < 1e-6 for decaying ones (acceptance criterion 1);
- trajectory: one row per RK4 step, probabilities in [0, 1];
- default seed only: integer columns equal to, and floats within
  REL_TOL (ABS_TOL floor) of, the reference outputs in ``reference/``,
  captured from vaxgame 0.1.0 with ``python3 bench/checks.py capture``.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"
CERT_TOL = 1e-8
PLANNER_TOL = 1e-9
RESIDUAL_TOL = 1e-10
ODE_GAP_TOL = 1e-6
DECAY_TOL = 1e-6
REL_TOL = 1e-9
ABS_TOL = 1e-12
# the planner's golden-section refinement stops at a 1e-10 fraction
# bracket; the tests hold the optimal fraction to 1e-6
ABS_TOL_BY_COLUMN = {"opt_fraction": 1e-6}
EXACT_COLUMNS = {"alpha", "threshold", "opt_threshold", "d_t", "d_w", "uninformative"}
TRAJECTORY_REFERENCE_STRIDE = 300


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _distribution(dist: dict):
    """Degrees and mass of a scenario distribution (power laws only)."""
    d = np.arange(dist["d_min"], dist["d_max"] + 1, dtype=np.float64)
    w = d ** (-float(dist["beta"]))
    return d, w / w.sum()


def _weight(alpha, p):
    if alpha is None:
        return p
    out = p.copy()
    inner = (p > 0.0) & (p < 1.0)
    out[inner] = np.exp(-((-np.log(p[inner])) ** alpha))
    return out


def endemic_v(d, mass, delta, unprotected):
    """Endemic v for each row of unprotected mass, by plain bisection."""
    x = np.atleast_2d(unprotected)
    coeff = x * d * d / float(np.sum(d * mass))
    active = coeff.sum(axis=1) / delta > 1.0
    lo = np.zeros(x.shape[0])
    hi = np.ones(x.shape[0])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        pos = (coeff / (delta + np.outer(mid, d))).sum(axis=1) > 1.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
        if np.all(hi - lo <= 1e-16 * hi):
            break
    return np.where(active, 0.5 * (lo + hi), 0.0)


def _threshold_states(d, mass, thresholds, fractions):
    x = np.zeros((len(thresholds), d.size))
    for row, (t, f) in enumerate(zip(thresholds, fractions)):
        i = int(t) - int(d[0])
        x[row, :i] = mass[:i]
        x[row, i] = f
    return x


def check_pne(scenario, path):
    header, rows = read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    d, mass = _distribution(scenario["distribution"])
    delta = scenario["delta"]
    thresholds = [int(r[col["threshold"]]) for r in rows]
    x = _threshold_states(d, mass, thresholds, [float(r[col["fraction"]]) for r in rows])
    v = endemic_v(d, mass, delta, x)
    p = d * v[:, None] / (delta + d * v[:, None])
    problems = []
    worst = 0.0
    for row, r in enumerate(rows):
        alpha = None if r[col["alpha"]] == "identity" else float(r[col["alpha"]])
        c = float(r[col["c"]])
        w = _weight(alpha, p[row])
        viol = np.zeros_like(w)
        viol = np.where(x[row] > 0.0, np.maximum(viol, w - c), viol)
        viol = np.where(mass - x[row] > 1e-15, np.maximum(viol, c - w), viol)
        worst = max(worst, float(viol.max()))
    if worst > CERT_TOL:
        problems.append(f"PNE certificate violation {worst:.3e} > {CERT_TOL:g}")
    return problems, {"max_cert_violation": worst}


def check_bounds(scenario, path, pne_path):
    header, rows = read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    problems = []
    informative = 0
    for r in rows:
        if int(r[col["uninformative"]]):
            continue
        informative += 1
        for d_col, lo, hi in (("d_t", "lower_t", "upper_t"), ("d_w", "lower_w", "upper_w")):
            if not float(r[col[lo]]) <= int(r[col[d_col]]) <= float(r[col[hi]]):
                problems.append(f"c={r[col['c']]}: {d_col} outside its sandwich")
    # the sandwich thresholds are the equilibria of the PNE table
    alpha = scenario["bounds"]["alpha"]
    pne_header, pne_rows = read_csv(pne_path)
    pcol = {name: i for i, name in enumerate(pne_header)}
    pne = {(r[pcol["c"]], r[pcol["alpha"]]): r[pcol["threshold"]] for r in pne_rows}
    for r in rows:
        for d_col, label in (("d_t", "identity"), ("d_w", format(float(alpha), ".17g"))):
            expected = pne.get((r[col["c"]], label))
            if expected is not None and expected != r[col[d_col]]:
                problems.append(f"c={r[col['c']]}: {d_col} {r[col[d_col]]} != PNE threshold {expected}")
    return problems, {"informative_points": informative}


def check_opt(path):
    header, rows = read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    problems = []
    for r in rows:
        opt, pne = float(r[col["opt_social_cost"]]), float(r[col["pne_social_cost"]])
        if not opt <= pne + PLANNER_TOL:
            problems.append(f"c={r[col['c']]}, alpha={r[col['alpha']]}: optimum {opt!r} > PNE {pne!r}")
    return problems


def check_trajectory(scenario, path):
    header, rows = read_csv(path)
    opts = scenario["dynamics"]
    dt = 0.01 / scenario["delta"]
    steps = max(1, int(round(opts["t_end"] / dt)))
    problems = []
    if len(rows) != steps + 1:
        problems.append(f"{len(rows)} trajectory rows, expected {steps + 1}")
    values = np.array(rows, dtype=np.float64)
    t, p = values[:, 0], values[:, 1:]
    if p.shape[1] != len(header) - 1 or np.any(np.diff(t) <= 0.0):
        problems.append("trajectory columns or times malformed")
    if np.any(p < 0.0) or np.any(p > 1.0):
        problems.append("trajectory probability outside [0, 1]")
    if not np.all(p[0] == opts["p0"]):
        problems.append("trajectory does not start at p0")
    return problems


def check_sample(sample, op):
    """Acceptance criterion 1 on one settled batch sample."""
    if "error" in op:
        return [op["error"]], {}
    d = np.asarray(sample["degrees"], dtype=np.float64)
    mass = np.asarray(sample["mass"])
    q_hat = d * np.asarray(sample["unprotected"]) / float(np.sum(d * mass))
    settled = np.asarray(op["settled"])
    problems = []
    if sample["kind"] == "endemic":
        gap = abs(float(np.dot(q_hat, settled)) - op["v"])
        if op["residual"] > RESIDUAL_TOL:
            problems.append(f"fixed-point residual {op['residual']:.3e} > {RESIDUAL_TOL:g}")
        if gap > ODE_GAP_TOL:
            problems.append(f"ODE gap {gap:.3e} > {ODE_GAP_TOL:g}")
        return problems, {"ode_gap": gap}
    decay = float(settled.max())
    if not decay < DECAY_TOL:
        problems.append(f"decaying state settled at {decay:.3e}")
    return problems, {"decay": decay}


def _close(a: str, b: str, column: str) -> bool:
    if column in EXACT_COLUMNS:
        return a == b
    x, y = float(a), float(b)
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL_BY_COLUMN.get(column, ABS_TOL))


def compare_rows(header, rows, ref_header, ref_rows, what):
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{what}: shape differs from the reference"]
    problems = []
    for r, ref in zip(rows, ref_rows):
        for column, a, b in zip(header, r, ref):
            if not _close(a, b, column):
                problems.append(f"{what}: {column} = {a}, reference {b}")
    return problems[:5]


def compare_reference(workload, artifacts, ops):
    """Problems per operation against the default-seed reference outputs."""
    ref_dir = REFERENCE / workload
    if not ref_dir.is_dir():
        return {op: [f"no reference outputs in {ref_dir}"] for op in artifacts}
    problems = {}
    for op, info in artifacts.items():
        header, rows = read_csv(info["path"])
        ref_header, ref_rows = read_csv(ref_dir / f"{op}.csv")
        if op == "dynamics":
            rows = rows[::TRAJECTORY_REFERENCE_STRIDE]
        problems[op] = compare_rows(header, rows, ref_header, ref_rows, f"{op} vs reference")
    if workload == "dynamics":
        ref_v = json.loads((ref_dir / "batch_v.json").read_text(encoding="utf-8"))
        for op, v in zip((o for o in ops if o["op"].startswith("sample")), ref_v):
            if "v" in op and not math.isclose(op["v"], v, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                problems[op["op"]] = [f"endemic v {op['v']!r}, reference {v!r}"]
    return problems


def check_job0(workload, inputs, job):
    """Problems per CLI operation of the first job, plus check-side figures."""
    cli_ops = [op for op in job["ops"] if "rc" in op]
    problems = {op["op"]: [] if op["rc"] == 0 else [op["error"] or f"exit code {op['rc']}"] for op in cli_ops}
    arts = job["artifacts"]
    for op in problems:
        if op not in arts:
            problems[op].append("artifact missing")
    figures = {}
    if workload == "sweep" and "pne" in arts:
        scenario = json.loads(Path(inputs["sweep.json"]).read_text(encoding="utf-8"))
        found, fig = check_pne(scenario, arts["pne"]["path"])
        problems["pne"] += found
        figures.update(fig)
        if "bounds" in arts:
            found, fig = check_bounds(scenario, arts["bounds"]["path"], arts["pne"]["path"])
            problems["bounds"] += found
            figures.update(fig)
    elif workload == "planner" and "opt" in arts:
        problems["opt"] += check_opt(arts["opt"]["path"])
    elif workload == "dynamics" and "dynamics" in arts:
        scenario = json.loads(Path(inputs["dynamics.json"]).read_text(encoding="utf-8"))
        problems["dynamics"] += check_trajectory(scenario, arts["dynamics"]["path"])
    return problems, figures


def capture(work_dir):
    """Store a finished default-seed run's job-0 outputs as the reference."""
    work = Path(work_dir)
    job = json.loads((work / "out" / "child.json").read_text(encoding="utf-8"))["jobs"][0]
    workload = work.name
    target = REFERENCE / workload
    target.mkdir(parents=True, exist_ok=True)
    for op, info in job["artifacts"].items():
        header, rows = read_csv(info["path"])
        if op == "dynamics":
            rows = rows[::TRAJECTORY_REFERENCE_STRIDE]
        with open(target / f"{op}.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write("\n".join(",".join(r) for r in [header] + rows) + "\n")
    if workload == "dynamics":
        v = [op["v"] for op in job["ops"] if op["op"].startswith("sample")]
        (target / "batch_v.json").write_text(json.dumps(v, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "capture":
        raise SystemExit("usage: python3 bench/checks.py capture .bench_work/WORKLOAD")
    capture(sys.argv[2])
