"""Batch experiment runner.

Loads a JSON scenario, dispatches one of the solver commands and writes a
deterministic CSV or JSON artifact::

    vaxgame solve pne      --scenario s.json --out pne.csv
    vaxgame solve opt      --scenario s.json --out opt.csv
    vaxgame solve bounds   --scenario s.json --out bounds.csv
    vaxgame solve dynamics --scenario s.json --out traj.csv [--format json]

Rows are ordered by (cost, weighting); floats are written with 17
significant digits and LF line endings so identical scenarios produce
byte-identical artifacts.  Invalid scenarios exit nonzero with a
machine-readable error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import PowerLawBoundContext, ratio_sandwich
from .dbmf import EpidemicParams, TableSizeError, integrate_dbmf
from .degree import DegreeDistribution
from .game import CandidateState, GameSpec, ThresholdLadder, solve_pne, verify_pne
from .planner import SocialOptimumSolver, social_cost
from .weighting import WeightingSpec

__all__ = ["Scenario", "ScenarioError", "load_scenario", "main"]


class ScenarioError(ValueError):
    """Scenario file missing, malformed, or violating an invariant."""


@dataclass
class Scenario:
    """Validated scenario: network, curing rate, weightings, costs, options."""

    distribution: DegreeDistribution
    delta: float
    weightings: list
    costs: list
    options: dict

    @property
    def params(self) -> EpidemicParams:
        return EpidemicParams(self.delta, self.distribution)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _is_number(value) -> bool:
    # type(), not isinstance: JSON true is a bool, which is an int
    return type(value) in (int, float)


# Keys each option object accepts; "dynamics.state" is the object under
# dynamics["state"].
OPTION_KEYS = {
    "dynamics": {"p0", "t_end", "dt", "sample_stride", "state"},
    "dynamics.state": {"threshold", "fraction"},
    "bounds": {"alpha"},
}


def _reject_unknown_keys(name: str, obj: dict):
    unknown = set(obj) - OPTION_KEYS[name]
    if unknown:
        raise ScenarioError(f"unknown '{name}' keys: {sorted(unknown)}")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")

    if not isinstance(raw.get("distribution"), dict):
        raise ScenarioError("scenario needs a 'distribution' object")
    try:
        distribution = DegreeDistribution.from_json(raw["distribution"])
    except KeyError as exc:
        raise ScenarioError(f"distribution is missing {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid distribution: {exc}") from exc

    delta = raw.get("delta")
    if not (_is_number(delta) and 0 < delta < np.inf):
        raise ScenarioError("'delta' must be a positive finite number")

    specs = raw.get("weightings", [{"kind": "identity"}])
    if not (isinstance(specs, list) and specs and all(isinstance(w, dict) for w in specs)):
        raise ScenarioError("'weightings' must be a nonempty list of objects")
    try:
        weightings = [WeightingSpec.from_json(w) for w in specs]
    except (ValueError, TypeError, KeyError) as exc:
        raise ScenarioError(f"invalid weighting: {exc}") from exc

    cost = raw.get("cost")
    if isinstance(cost, dict):
        try:
            start, stop, steps = cost["start"], cost["stop"], cost["steps"]
        except KeyError as exc:
            raise ScenarioError("cost sweep needs numeric 'start', 'stop', 'steps'") from exc
        if not (_is_number(start) and _is_number(stop)):
            raise ScenarioError("cost sweep 'start' and 'stop' must be numbers")
        if not start < stop:
            raise ScenarioError("cost sweep requires start < stop")
        if type(steps) is not int or steps < 2:
            raise ScenarioError("cost sweep 'steps' must be an integer of at least 2")
        costs = [float(c) for c in np.linspace(start, stop, steps)]
    elif _is_number(cost):
        costs = [float(cost)]
    elif cost is None:
        costs = []
    else:
        raise ScenarioError("'cost' must be a number or a sweep object")
    if any(not (0.0 < c < 1.0) for c in costs):
        raise ScenarioError("all costs must lie strictly inside (0, 1)")

    known = {"distribution", "delta", "weightings", "cost", "dynamics", "bounds"}
    unknown = set(raw) - known
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    options = {k: raw[k] for k in ("dynamics", "bounds") if k in raw}
    if any(not isinstance(v, dict) for v in options.values()):
        raise ScenarioError("'dynamics' and 'bounds' must be objects")
    for name, obj in options.items():
        _reject_unknown_keys(name, obj)
    state = options.get("dynamics", {}).get("state")
    if isinstance(state, dict):
        _reject_unknown_keys("dynamics.state", state)
    return Scenario(distribution, float(delta), weightings, costs, options)


def _require_costs(scenario: Scenario):
    if not scenario.costs:
        raise ScenarioError("this command requires 'cost' in the scenario")


def cmd_pne(scenario: Scenario) -> tuple[list, list]:
    """Equilibrium table rows for every (cost, weighting) pair."""
    _require_costs(scenario)
    params = scenario.params
    ladder = ThresholdLadder(params)
    header = ["c", "alpha", "threshold", "fraction", "v", "expected_infected", "social_cost"]
    rows = []
    for c in scenario.costs:
        for w in scenario.weightings:
            spec = GameSpec(params, w, c)
            res = solve_pne(spec, ladder=ladder)
            cert = verify_pne(spec, res.state)
            if not cert.passed:
                raise RuntimeError(
                    f"equilibrium certificate failed at c={c:g}, {w.label}: "
                    f"violation {cert.max_violation:g}"
                )
            alpha = "identity" if w.kind == "identity" else _fmt(float(w.alpha))
            rows.append(
                [
                    c,
                    alpha,
                    res.state.threshold,
                    res.state.fraction,
                    res.v,
                    res.expected_infected,
                    res.social_cost,
                ]
            )
    return header, rows


def cmd_social_opt(scenario: Scenario) -> tuple[list, list]:
    """Planner-vs-equilibrium table rows for every (cost, weighting) pair."""
    _require_costs(scenario)
    params = scenario.params
    ladder = ThresholdLadder(params)
    solver = SocialOptimumSolver(params, ladder=ladder)
    bound = params.distribution.mean_degree / params.delta
    header = [
        "c",
        "alpha",
        "opt_threshold",
        "opt_fraction",
        "opt_social_cost",
        "pne_social_cost",
        "gap",
        "bound",
    ]
    rows = []
    for c in scenario.costs:
        opt_state, opt_cost = solver.solve(c)
        for w in scenario.weightings:
            spec = GameSpec(params, w, c)
            res = solve_pne(spec, ladder=ladder)
            pne_cost = social_cost(params, c, res.state)
            alpha = "identity" if w.kind == "identity" else _fmt(float(w.alpha))
            rows.append(
                [
                    c,
                    alpha,
                    "none" if opt_state.threshold is None else opt_state.threshold,
                    opt_state.fraction,
                    opt_cost.total,
                    pne_cost.total,
                    pne_cost.total - opt_cost.total,
                    bound,
                ]
            )
    return header, rows


def cmd_bounds(scenario: Scenario) -> tuple[list, list]:
    """Threshold-sandwich table over the cost grid."""
    _require_costs(scenario)
    opts = scenario.options.get("bounds", {})
    alpha = opts.get("alpha")
    if alpha is None:
        prelecs = [w for w in scenario.weightings if w.kind == "prelec"]
        if not prelecs:
            raise ScenarioError("bounds command needs a prelec weighting or bounds.alpha")
        alpha = prelecs[0].alpha
    elif not _is_number(alpha):
        raise ScenarioError("'bounds.alpha' must be a number")
    ctx = PowerLawBoundContext.create(scenario.distribution, scenario.delta)
    report = ratio_sandwich(ctx, float(alpha), scenario.costs)
    header = [
        "c",
        "d_t",
        "d_w",
        "lower_t",
        "upper_t",
        "lower_w",
        "upper_w",
        "ratio",
        "theta_proxy",
        "uninformative",
    ]
    rows = [
        [
            p.cost,
            p.d_true,
            p.d_weighted,
            p.true_lo,
            p.true_hi,
            p.weighted_lo,
            p.weighted_hi,
            p.ratio,
            p.theta_proxy,
            int(p.uninformative),
        ]
        for p in report.points
    ]
    return header, rows


def cmd_dynamics(scenario: Scenario) -> tuple[list, np.ndarray]:
    """Sampled mean-field trajectory for the configured social state.

    The rows are the integrator's own table, one float row per sample with
    the time first, handed to the writer without a copy.
    """
    opts = scenario.options.get("dynamics", {})
    params = scenario.params
    dist = scenario.distribution
    state_spec = opts.get("state")
    if state_spec is None:
        state = CandidateState.all_unprotected(dist)
    else:
        if not isinstance(state_spec, dict):
            raise ScenarioError("dynamics 'state' must be an object")
        threshold, fraction = state_spec.get("threshold"), state_spec.get("fraction")
        if not (threshold is None or type(threshold) is int) or not (
            fraction is None or _is_number(fraction)
        ):
            raise ScenarioError("dynamics 'state' needs an integer 'threshold' and a number 'fraction'")
        try:
            state = CandidateState(dist, threshold, fraction)
        except (KeyError, ValueError) as exc:
            raise ScenarioError(f"invalid dynamics state: {exc}") from exc
    p0 = opts.get("p0", 0.5)
    t_end = opts.get("t_end", 25.0)
    dt = opts.get("dt")
    stride = opts.get("sample_stride", 1)
    if not (_is_number(p0) or (isinstance(p0, list) and all(_is_number(x) for x in p0))):
        raise ScenarioError("dynamics 'p0' must be a number or a list of numbers")
    if isinstance(p0, list) and len(p0) != dist.size:
        raise ScenarioError(f"dynamics 'p0' list needs one value per degree: {dist.size}, not {len(p0)}")
    if not (_is_number(t_end) and 0 < t_end < np.inf):
        raise ScenarioError("dynamics 't_end' must be a positive finite number")
    if dt is not None and not (_is_number(dt) and 0 < dt < np.inf):
        raise ScenarioError("dynamics 'dt' must be a positive finite number")
    if type(stride) is not int or stride < 1:
        raise ScenarioError("dynamics 'sample_stride' must be an integer of at least 1")
    try:
        traj = integrate_dbmf(params, state, p0, float(t_end), None if dt is None else float(dt), stride)
    except TableSizeError as exc:
        raise ScenarioError(f"dynamics trajectory too large: {exc}") from exc
    header = ["t"] + [f"p_{int(d)}" for d in traj.degrees]
    return header, traj.table


COMMANDS = {
    "pne": cmd_pne,
    "opt": cmd_social_opt,
    "bounds": cmd_bounds,
    "dynamics": cmd_dynamics,
}


# Rows of a float table formatted by one %-string each, in CSV and JSON.
CSV_BLOCK_ROWS = 64


def _write_csv(path: str, header: list, rows):
    """Write the header, then ``rows``: a float ndarray or a list of mixed rows.

    An ndarray is written CSV_BLOCK_ROWS rows at a time, one "%.17g"
    %-format per block, the same bytes as :func:`_fmt` on each value.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            row_format = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                block = rows[start : start + CSV_BLOCK_ROWS]
                fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))
        else:
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, header: list, rows):
    """Write ``rows`` as a list of objects keyed by ``header``, indented by 2.

    A float ndarray is streamed CSV_BLOCK_ROWS rows at a time, one
    %-format per block, the same bytes as ``json.dump(records, indent=2)``:
    each row's template holds the keys encoded by :func:`json.dumps` and a
    ``%r`` per value, which is json's own float repr for finite floats.
    The table is finite, since the integrator raises on a NaN or an
    infinity.  Mixed rows go through strict :func:`json.dump`, with ``null``
    for their non-finite floats.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if isinstance(rows, np.ndarray):
            keys = (json.dumps(key).replace("%", "%%") for key in header)
            row_format = "  {\n" + ",\n".join(f"    {key}: %r" for key in keys) + "\n  }"
            fh.write("[\n")
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                block = rows[start : start + CSV_BLOCK_ROWS]
                if start:
                    fh.write(",\n")
                fh.write(",\n".join([row_format] * len(block)) % tuple(block.ravel().tolist()))
            fh.write("\n]\n")
        else:
            rows = [[None if isinstance(v, float) and not np.isfinite(v) else v for v in row] for row in rows]
            json.dump([dict(zip(header, row)) for row in rows], fh, indent=2, allow_nan=False)
            fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vaxgame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run a solver command on a scenario")
    solve.add_argument("what", choices=sorted(COMMANDS))
    solve.add_argument("--scenario", required=True, help="path to the scenario JSON")
    solve.add_argument("--out", required=True, help="artifact output path")
    solve.add_argument("--format", choices=["csv", "json"], default="csv")
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
        header, rows = COMMANDS[args.what](scenario)
        if args.format == "csv":
            _write_csv(args.out, header, rows)
        else:
            _write_json(args.out, header, rows)
    except Exception as exc:  # noqa: BLE001 - single exit funnel for the CLI
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
