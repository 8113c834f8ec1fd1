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
import errno
import json
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import PowerLawBoundContext, ratio_sandwich
from .dbmf import EpidemicParams, TableSizeError, integrate_dbmf
from .degree import DegreeDistribution
# bench/tracing.py patches ThresholdLadder, SocialOptimumSolver and social_cost by
# these names, so they stay though this module no longer calls social_cost
from .game import CandidateState, GameSpec, ThresholdLadder, solve_pne, verify_pne
from .planner import SocialOptimumSolver, social_cost  # noqa: F401
from .weighting import WeightingSpec, prelec

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


def _certified_equilibria(scenario: Scenario, params: EpidemicParams, ladder: ThresholdLadder, c: float):
    """Yield ``(alpha, result)`` for each weighting's equilibrium at cost ``c``.

    ``alpha`` is the label of the table's ``alpha`` column.  Each
    result's certificate is checked before it is yielded; a failed one
    raises RuntimeError, so no table holds an uncertified equilibrium.
    """
    for w in scenario.weightings:
        spec = GameSpec(params, w, c)
        res = solve_pne(spec, ladder=ladder)
        cert = verify_pne(spec, res.state)
        if not cert.passed:
            raise RuntimeError(
                f"equilibrium certificate failed at c={c:g}, {w.label}: "
                f"violation {cert.max_violation:g}"
            )
        yield ("identity" if w.kind == "identity" else _fmt(float(w.alpha))), res


def cmd_pne(scenario: Scenario) -> tuple[list, list]:
    """Equilibrium table rows for every (cost, weighting) pair.

    One row per certified equilibrium of :func:`_certified_equilibria`,
    run over the costs by :func:`vaxgame.forking.interleave`, the odd ones
    in a forked child where a second process may run.  Each process fills
    its own ladder; a rung is a function of its index alone, so the rows
    are the same bytes either way, and so is the exception of the first
    failing cost.
    """
    _require_costs(scenario)
    params = scenario.params
    ladder = ThresholdLadder(params)
    header = ["c", "alpha", "threshold", "fraction", "v", "expected_infected", "social_cost"]

    def solve_cost(i: int) -> list:
        c = scenario.costs[i]
        return [
            [c, alpha, res.state.threshold, res.state.fraction, res.v, res.expected_infected, res.social_cost]
            for alpha, res in _certified_equilibria(scenario, params, ladder, c)
        ]

    # imported on first use, as csvtext is, so importing the package does not compile it
    from .forking import interleave

    return header, [row for rows in interleave(solve_cost, len(scenario.costs)) for row in rows]


def cmd_social_opt(scenario: Scenario) -> tuple[list, list]:
    """Planner-vs-equilibrium table rows for every (cost, weighting) pair.

    The equilibria are :func:`cmd_pne`'s, certified the same way, so
    ``pne_social_cost`` is ``solve pne``'s ``social_cost`` and a failed
    certificate exits as ``solve pne`` does.  Each cost solves its
    equilibria, then the planner's optimum, run over the costs by
    :func:`vaxgame.forking.interleave`.  Each process keeps its own ladder
    and its own :class:`SocialOptimumSolver` table; every answer depends
    on its cost alone, so the rows are the same bytes either way.
    """
    _require_costs(scenario)
    params = scenario.params
    ladder = ThresholdLadder(params)
    solver = SocialOptimumSolver(params)
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

    def solve_cost(i: int) -> list:
        c = scenario.costs[i]
        equilibria = list(_certified_equilibria(scenario, params, ladder, c))
        opt_state, opt_cost = solver.solve(c)
        opt_threshold = "none" if opt_state.threshold is None else opt_state.threshold
        return [
            [
                c,
                alpha,
                opt_threshold,
                opt_state.fraction,
                opt_cost.total,
                res.social_cost,
                res.social_cost - opt_cost.total,
                bound,
            ]
            for alpha, res in equilibria
        ]

    from .forking import interleave

    return header, [row for rows in interleave(solve_cost, len(scenario.costs)) for row in rows]


def cmd_bounds(scenario: Scenario) -> tuple[list, list]:
    """Threshold-sandwich table over the cost grid.

    One :func:`ratio_sandwich` point per cost, run over the costs by
    :func:`vaxgame.forking.interleave` as :func:`cmd_pne` runs its costs,
    with one ladder for each process.
    """
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
    try:
        alpha = prelec(alpha).alpha
    except (ValueError, OverflowError) as exc:  # an int too large for a float overflows
        raise ScenarioError(f"invalid 'bounds.alpha': {exc}") from None
    ctx = PowerLawBoundContext.create(scenario.distribution, scenario.delta)
    ladder = ThresholdLadder(ctx.params)
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

    def solve_cost(i: int) -> list:
        (p,) = ratio_sandwich(ctx, alpha, scenario.costs[i : i + 1], ladder=ladder).points
        return [
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

    from .forking import interleave

    return header, interleave(solve_cost, len(scenario.costs))


def cmd_dynamics(scenario: Scenario, out, fmt: str):
    """Write the sampled mean-field trajectory for the configured social state.

    One float row per sample, the time first, goes to ``out`` as ``fmt``
    ("csv" or "json"), formatted block by block as the integrator fills
    them, so the whole table is never held.  Where a second process may
    run and ``out`` has a file descriptor, such as the ``--out`` file, the
    blocks are formatted in a forked writer process
    (:class:`vaxgame.forking.ForkedWriter`) while this one steps on; the
    integrator, its range check and its table cap stay here.  The writer
    is reaped before this returns or raises, and the closing is written
    here after it, on success only.  Otherwise, as for an ``out`` with no
    descriptor such as :class:`io.StringIO`, the same sink formats here;
    the bytes are the same either way.
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
    header = ["t"] + [f"p_{int(d)}" for d in dist.degrees]
    from .forking import ForkedWriter

    with ForkedWriter(_TableSink(out, fmt, header)) as sink:
        try:
            integrate_dbmf(params, state, p0, float(t_end), None if dt is None else float(dt), stride, sink)
        except TableSizeError as exc:
            raise ScenarioError(f"dynamics trajectory too large: {exc}") from exc


COMMANDS = {
    "pne": cmd_pne,
    "opt": cmd_social_opt,
    "bounds": cmd_bounds,
    "dynamics": cmd_dynamics,
}


class _Artifact:
    """The ``--out`` file, written through a temporary file beside it.

    The temporary is created at the first :meth:`write`, with the
    permissions ``open(path, "w")`` gives (an existing file's mode bits
    are kept), and renamed over the target when the ``with`` block exits
    cleanly.  On an error it is removed, so the target stays as it was.
    An existing target that is not writable is refused, and an error in
    creating the temporary names the target, as ``open`` would.  A
    target that exists but is no regular file at its resolved path, such
    as ``/dev/stdout`` on a terminal, a pipe or an unlinked file, is
    written in place.  A symbolic link stays, and its target is replaced.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = None
        self._tmp = None

    def write(self, text: str):
        if self._fh is None:
            self._open()
        self._fh.write(text)

    def fileno(self) -> int:
        """The descriptor of the file being written, opened on first use."""
        if self._fh is None:
            self._open()
        return self._fh.fileno()

    def _open(self):
        self._target = os.path.realpath(self.path)
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            st = None
        if st is not None and not self._names_regular_file(st):
            self._fh = open(self.path, "w", encoding="utf-8", newline="\n")
            return
        if st is not None and not os.access(self._target, os.W_OK):
            # the rename would only need the directory; open(path, "w") refuses
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), self.path)
        directory, name = os.path.split(self._target)
        self._tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            self._fh = open(self._tmp, "x", encoding="utf-8", newline="\n")
        except OSError as exc:
            self._tmp = None
            raise type(exc)(exc.errno, exc.strerror, self.path) from None
        if st is not None:
            os.chmod(self._tmp, stat.S_IMODE(st.st_mode))

    def _names_regular_file(self, st: os.stat_result) -> bool:
        """Whether the resolved target path is the regular file ``st`` describes."""
        try:
            return stat.S_ISREG(st.st_mode) and os.path.samestat(st, os.stat(self._target))
        except FileNotFoundError:  # an unlinked file reached through /proc/self/fd
            return False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._fh is None:
            return
        try:
            self._fh.close()
            if exc_type is None and self._tmp is not None:
                os.replace(self._tmp, self._target)
                self._tmp = None
        finally:
            if self._tmp is not None:
                os.unlink(self._tmp)


class _TableSink:
    """Block sink that formats float rows straight into ``out`` as CSV or JSON.

    In CSV :func:`csvtext.csv_rows` writes each value as the bytes "%.17g"
    gives, those of :func:`_fmt`, a few rows at a time.  In JSON each block
    is one %-format: each row's template holds the keys encoded by
    :func:`json.dumps` and a ``%r`` per value, which is json's own float
    repr for finite floats, so the bytes are those of
    ``json.dump(records, indent=2)``.  The rows are finite, since the
    integrator raises on a NaN or an infinity.  The CSV header, or the
    JSON opening bracket, goes out with the first block, so a run refused
    before it writes nothing; :meth:`close` ends the artifact.  Behind a
    forked writer the child's copy of the sink formats every block, the
    opening with the first, and this process's copy writes the closing
    once the writer is reaped.
    """

    def __init__(self, out, fmt: str, header: list):
        self.out = out
        self.csv = None
        # lead is the text written before the next block: the opening before the first
        if fmt == "csv":
            # imported on first use: without a bytecode cache, compiling it
            # would add to the import time and to the import's peak memory
            from . import csvtext

            self.csv = csvtext
            self.lead, self.separator, self.closing = ",".join(header) + "\n", "", ""
        else:
            self.lead, self.separator, self.closing = "[\n", ",\n", "\n]\n"
            keys = (json.dumps(key).replace("%", "%%") for key in header)
            self.row_format = "  {\n" + ",\n".join(f"    {key}: %r" for key in keys) + "\n  }"

    def __call__(self, block: np.ndarray):
        self.out.write(self.lead)
        self.lead = self.separator
        if self.csv is not None:
            step = self.csv.SLICE_ROWS
            for start in range(0, len(block), step):
                self.out.write(self.csv.csv_rows(block[start : start + step]))
        else:
            self.out.write(self.separator.join([self.row_format] * len(block)) % tuple(block.ravel().tolist()))

    def close(self):
        self.out.write(self.closing)


def _write_csv(out, header: list, rows: list):
    """Write the header, then one line of :func:`_fmt` values per row."""
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(out, header: list, rows: list):
    """Write ``rows`` as a list of objects keyed by ``header``, indented by 2.

    Strict :func:`json.dump`, with ``null`` for non-finite floats.
    """
    rows = [[None if isinstance(v, float) and not np.isfinite(v) else v for v in row] for row in rows]
    json.dump([dict(zip(header, row)) for row in rows], out, indent=2, allow_nan=False)
    out.write("\n")


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
        with _Artifact(args.out) as out:
            if args.what == "dynamics":
                COMMANDS[args.what](scenario, out, args.format)
            else:
                header, rows = COMMANDS[args.what](scenario)
                (_write_csv if args.format == "csv" else _write_json)(out, header, rows)
    except Exception as exc:  # noqa: BLE001 - single exit funnel for the CLI
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
