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
from .dbmf import EpidemicParams, SocialState, integrate_dbmf
from .degree import DegreeDistribution
from .game import GameSpec, ThresholdLadder, solve_pne, verify_pne
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

    try:
        distribution = DegreeDistribution.from_json(raw["distribution"])
    except KeyError:
        raise ScenarioError("scenario is missing 'distribution'") from None
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid distribution: {exc}") from exc

    delta = raw.get("delta")
    if not isinstance(delta, (int, float)) or not delta > 0:
        raise ScenarioError("'delta' must be a positive number")

    specs = raw.get("weightings", [{"kind": "identity"}])
    if not isinstance(specs, list) or not specs:
        raise ScenarioError("'weightings' must be a nonempty list")
    try:
        weightings = [WeightingSpec.from_json(w) for w in specs]
    except (ValueError, TypeError, KeyError) as exc:
        raise ScenarioError(f"invalid weighting: {exc}") from exc

    cost = raw.get("cost")
    if isinstance(cost, dict):
        try:
            start, stop, steps = float(cost["start"]), float(cost["stop"]), int(cost["steps"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ScenarioError("cost sweep needs numeric 'start', 'stop', 'steps'") from exc
        if not start < stop:
            raise ScenarioError("cost sweep requires start < stop")
        if steps < 2:
            raise ScenarioError("cost sweep requires at least 2 steps")
        costs = [float(c) for c in np.linspace(start, stop, steps)]
    elif isinstance(cost, (int, float)):
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
            cert = verify_pne(spec, res, tol=1e-8)
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
    opt_cache = {}
    for c in scenario.costs:
        if c not in opt_cache:
            opt_cache[c] = solver.solve(c)
        opt_state, opt_cost = opt_cache[c]
        for w in scenario.weightings:
            spec = GameSpec(params, w, c)
            res = solve_pne(spec, ladder=ladder)
            pne_cost = social_cost(params, c, res.state.social_state())
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


def cmd_dynamics(scenario: Scenario) -> tuple[list, list]:
    """Sampled mean-field trajectory for the configured social state."""
    opts = scenario.options.get("dynamics", {})
    params = scenario.params
    dist = scenario.distribution
    state_spec = opts.get("state")
    if state_spec is None:
        state = SocialState.all_unprotected(dist)
    else:
        try:
            state = SocialState.from_threshold(
                dist, state_spec.get("threshold"), state_spec.get("fraction")
            )
        except (KeyError, ValueError, AttributeError) as exc:
            raise ScenarioError(f"invalid dynamics state: {exc}") from exc
    p0 = opts.get("p0", 0.5)
    t_end = float(opts.get("t_end", 25.0))
    dt = opts.get("dt")
    stride = int(opts.get("sample_stride", 1))
    if t_end <= 0 or (dt is not None and float(dt) <= 0) or stride < 1:
        raise ScenarioError("dynamics needs t_end > 0, dt > 0 and sample_stride >= 1")
    traj = integrate_dbmf(params, state, p0, t_end, None if dt is None else float(dt), stride)
    header = ["t"] + [f"p_{int(d)}" for d in traj.degrees]
    rows = [[float(t)] + [float(v) for v in row] for t, row in zip(traj.times, traj.probabilities)]
    return header, rows


COMMANDS = {
    "pne": cmd_pne,
    "opt": cmd_social_opt,
    "bounds": cmd_bounds,
    "dynamics": cmd_dynamics,
}


def _write_csv(path: str, header: list, rows: list):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, header: list, rows: list):
    records = [dict(zip(header, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(records, fh, indent=2)
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
