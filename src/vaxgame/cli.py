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

from . import degree
from .bounds import PowerLawBoundContext, _require_beta3_d0, ratio_sandwich
from .dbmf import EpidemicParams, TableSizeError, integrate_dbmf
# bench/tracing.py patches ThresholdLadder, SocialOptimumSolver and social_cost by
# these names, so they stay though this module no longer calls social_cost
from .game import CandidateState, GameSpec, ThresholdLadder, solve_pne, verify_pne
from .planner import SocialOptimumSolver, social_cost  # noqa: F401
from .weighting import identity, prelec

__all__ = ["Scenario", "ScenarioError", "load_scenario", "main"]


class ScenarioError(ValueError):
    """Scenario file missing, malformed, or violating an invariant."""


@dataclass
class Scenario:
    """Validated scenario: network, curing rate, weightings, costs, options."""

    distribution: degree.DegreeDistribution
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


# Keys each scenario object accepts: the scenario itself, each distribution
# type, each weighting kind, a cost sweep and the option blocks;
# "dynamics.state" is the object under dynamics["state"].
KEYS = {
    "scenario": {"distribution", "delta", "weightings", "cost", "dynamics", "bounds"},
    "powerlaw": {"type", "d_min", "d_max", "beta"},
    "explicit": {"type", "mass"},
    "identity": {"kind"},
    "prelec": {"kind", "alpha"},
    "cost": {"start", "stop", "steps"},
    "dynamics": {"p0", "t_end", "dt", "sample_stride", "state"},
    "dynamics.state": {"threshold", "fraction"},
    "bounds": {"alpha"},
}
# Most costs a sweep may ask for, checked before they are made: 8 MB of
# floats, far beyond any useful sweep.
MAX_COST_STEPS = 10**6


def _reject_unknown_keys(name: str, obj: dict):
    unknown = set(obj) - KEYS[name]
    if unknown:
        raise ScenarioError(f"unknown '{name}' keys: {sorted(unknown)}")


def _variant(obj: dict, field: str, kinds: tuple, what: str) -> str:
    """The one of ``kinds`` that ``obj[field]`` names, once ``obj`` has only its keys."""
    kind = obj.get(field)
    if kind not in kinds:
        raise ScenarioError(f"unknown {what} {field} {kind!r}")
    _reject_unknown_keys(kind, obj)
    return kind


def _number(value, key: str, positive: bool = False) -> float:
    """``value`` as a float, for a JSON int or float that a float can hold.

    With ``positive``, the float must also be positive and finite.
    """
    # type(), not isinstance: JSON true is a bool, which is an int
    if type(value) not in (int, float):
        raise ScenarioError(f"'{key}' must be a number")
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        raise ScenarioError(f"'{key}' must be a number a float can hold") from None
    if positive and not 0.0 < value < np.inf:
        raise ScenarioError(f"'{key}' must be a positive finite number")
    return value


def _integer(value, key: str, least=None, most=None) -> int:
    """``value`` for a JSON int that a float can hold, at least ``least`` and at most ``most`` if given."""
    if type(value) is not int:
        raise ScenarioError(f"'{key}' must be an integer")
    _number(value, key)
    if least is not None and value < least:
        raise ScenarioError(f"'{key}' must be an integer of at least {least}")
    if most is not None and value > most:
        raise ScenarioError(f"'{key}' must be an integer of at most {most:,}")
    return value


def _built(what: str, build, *args):
    """``build(*args)``, its refusal of a scenario value raised as a ScenarioError."""
    try:
        return build(*args)
    except (KeyError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"invalid {what}: {exc}") from None


def _unique_keys(pairs: list) -> dict:
    """``json`` object hook: the object of ``pairs``, refusing a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError(f"key '{key}' is given twice in one object")
        obj[key] = value
    return obj


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except ScenarioError:
        raise
    except ValueError as exc:  # a decode error, or an int past the digit limit
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    _reject_unknown_keys("scenario", raw)

    spec = raw.get("distribution")
    if not isinstance(spec, dict):
        raise ScenarioError("scenario needs a 'distribution' object")
    if _variant(spec, "type", ("powerlaw", "explicit"), "distribution") == "powerlaw":
        d_min = _integer(spec.get("d_min"), "distribution.d_min")
        d_max = _integer(spec.get("d_max"), "distribution.d_max")
        beta = _number(spec.get("beta"), "distribution.beta")
        # through the module: the benchmark's tracer patches degree.power_law
        distribution = _built("distribution", degree.power_law, d_min, d_max, beta)
    else:
        mass = spec.get("mass")
        if not isinstance(mass, dict):
            raise ScenarioError("'distribution.mass' must map degrees to numbers")
        mass = {d: _number(m, f"distribution.mass.{d}") for d, m in mass.items()}
        distribution = _built("'distribution.mass'", degree.explicit, mass)

    delta = _number(raw.get("delta"), "delta", positive=True)

    specs = raw.get("weightings", [{"kind": "identity"}])
    if not (isinstance(specs, list) and specs and all(isinstance(w, dict) for w in specs)):
        raise ScenarioError("'weightings' must be a nonempty list of objects")
    weightings = [
        identity()
        if _variant(w, "kind", ("identity", "prelec"), "weighting") == "identity"
        else _built(f"'weightings[{i}]'", prelec, _number(w.get("alpha"), f"weightings[{i}].alpha"))
        for i, w in enumerate(specs)
    ]

    cost = raw.get("cost")
    if isinstance(cost, dict):
        _reject_unknown_keys("cost", cost)
        start, stop = _number(cost.get("start"), "cost.start"), _number(cost.get("stop"), "cost.stop")
        steps = _integer(cost.get("steps"), "cost.steps", least=2, most=MAX_COST_STEPS)
        if not 0.0 < start < stop < 1.0:
            raise ScenarioError("a cost sweep needs 0 < start < stop < 1")
        costs = np.linspace(start, stop, steps).tolist()
    else:
        costs = [] if cost is None else [_number(cost, "cost")]
    if any(not (0.0 < c < 1.0) for c in costs):
        raise ScenarioError("all costs must lie strictly inside (0, 1)")

    options = {k: raw[k] for k in ("dynamics", "bounds") if k in raw}
    for name, obj in options.items():
        if not isinstance(obj, dict):
            raise ScenarioError(f"'{name}' must be an object")
        _reject_unknown_keys(name, obj)
    state = options.get("dynamics", {}).get("state")
    if isinstance(state, dict):
        _reject_unknown_keys("dynamics.state", state)
    return Scenario(distribution, delta, weightings, costs, options)


def _require_costs(scenario: Scenario):
    """Refuse, before any fork, a scenario that every cost would refuse.

    That is one without costs, or one whose curing rate reaches
    <d^2>/<d>, where no game is defined.
    """
    if not scenario.costs:
        raise ScenarioError("this command requires 'cost' in the scenario")
    if not scenario.params.epidemic_can_persist:
        dist = scenario.distribution
        raise ScenarioError(
            f"'delta' must stay below <d^2>/<d> = {dist.second_moment / dist.mean_degree:g}; "
            "otherwise the epidemic dies out regardless of vaccination choices"
        )


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


def _sweep(scenario: Scenario, solve_cost) -> list:
    """The row lists ``solve_cost(i)`` gives for every cost index ``i``, joined
    in cost order; :func:`vaxgame.forking.interleave` runs the costs."""
    # imported on first use, as csvtext is, so importing the package does not compile it
    from .forking import interleave

    return [row for rows in interleave(solve_cost, len(scenario.costs)) for row in rows]


def cmd_pne(scenario: Scenario) -> tuple[list, list]:
    """Equilibrium table rows for every (cost, weighting) pair.

    One row per certified equilibrium of :func:`_certified_equilibria`,
    run over the costs by :func:`_sweep`.  Each process fills
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

    return header, _sweep(scenario, solve_cost)


def cmd_social_opt(scenario: Scenario) -> tuple[list, list]:
    """Planner-vs-equilibrium table rows for every (cost, weighting) pair.

    The equilibria are :func:`cmd_pne`'s, certified the same way, so
    ``pne_social_cost`` is ``solve pne``'s ``social_cost`` and a failed
    certificate exits as ``solve pne`` does.  Each cost solves its
    equilibria, then the planner's optimum, run over the costs by
    :func:`_sweep`.  Each process keeps its own ladder
    and its own :class:`SocialOptimumSolver` table; every answer depends
    on its cost alone, so the rows are the same bytes either way.
    """
    _require_costs(scenario)
    params = scenario.params
    ladder = ThresholdLadder(params)
    solver = SocialOptimumSolver(params)
    bound = params.distribution.mean_degree / params.delta
    header = ["c", "alpha", "opt_threshold", "opt_fraction", "opt_social_cost", "pne_social_cost", "gap", "bound"]

    def solve_cost(i: int) -> list:
        c = scenario.costs[i]
        equilibria = list(_certified_equilibria(scenario, params, ladder, c))
        opt_state, opt_cost = solver.solve(c)
        opt_threshold = "none" if opt_state.threshold is None else opt_state.threshold
        return [
            [c, alpha, opt_threshold, opt_state.fraction, opt_cost.total, res.social_cost,
             res.social_cost - opt_cost.total, bound]
            for alpha, res in equilibria
        ]

    return header, _sweep(scenario, solve_cost)


def cmd_bounds(scenario: Scenario) -> tuple[list, list]:
    """Threshold-sandwich table over the cost grid.

    One :func:`ratio_sandwich` point per cost, run over the costs by
    :func:`_sweep` as :func:`cmd_pne` runs its costs, on the context's
    one ladder.
    """
    _require_costs(scenario)
    alpha = scenario.options.get("bounds", {}).get("alpha")
    if alpha is None:
        prelecs = [w for w in scenario.weightings if w.kind == "prelec"]
        if not prelecs:
            raise ScenarioError("bounds command needs a prelec weighting or bounds.alpha")
        alpha = prelecs[0].alpha
    else:
        alpha = _built("'bounds.alpha'", prelec, _number(alpha, "bounds.alpha")).alpha
    ctx = _built("bounds scenario", PowerLawBoundContext.create, scenario.distribution, scenario.delta)
    # ratio_sandwich checks on every call; checked here so a refusal comes before any fork
    _built("bounds scenario", _require_beta3_d0, ctx)
    ctx.ladder  # built here, so a forked child inherits its first_endemic
    header = ["c", "d_t", "d_w", "lower_t", "upper_t", "lower_w", "upper_w", "ratio", "theta_proxy", "uninformative"]

    def solve_cost(i: int) -> list:
        return [
            [p.cost, p.d_true, p.d_weighted, p.true_lo, p.true_hi, p.weighted_lo, p.weighted_hi, p.ratio,
             p.theta_proxy, int(p.uninformative)]
            for p in ratio_sandwich(ctx, alpha, scenario.costs[i : i + 1]).points
        ]

    return header, _sweep(scenario, solve_cost)


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
            raise ScenarioError("'dynamics.state' must be an object")
        threshold, fraction = state_spec.get("threshold"), state_spec.get("fraction")
        if threshold is None and fraction is not None:
            # no threshold names everyone vaccinated, where a fraction means nothing
            raise ScenarioError("'dynamics.state' has a 'fraction' but no 'threshold'")
        if threshold is not None:
            threshold = _integer(threshold, "dynamics.state.threshold")
        if fraction is not None:
            fraction = _number(fraction, "dynamics.state.fraction")
        state = _built("'dynamics.state'", CandidateState, dist, threshold, fraction)
    p0 = opts.get("p0", 0.5)
    if isinstance(p0, list):
        p0 = [_number(x, "dynamics.p0") for x in p0]
        if len(p0) != dist.size:
            raise ScenarioError(f"'dynamics.p0' list needs one value per degree: {dist.size}, not {len(p0)}")
    else:
        p0 = _number(p0, "dynamics.p0")
    t_end = _number(opts.get("t_end", 25.0), "dynamics.t_end", positive=True)
    dt = opts.get("dt")
    if dt is not None:
        dt = _number(dt, "dynamics.dt", positive=True)
    stride = _integer(opts.get("sample_stride", 1), "dynamics.sample_stride", least=1)
    header = ["t"] + [f"p_{int(d)}" for d in dist.degrees]
    from .forking import ForkedWriter

    with ForkedWriter(_TableSink(out, fmt, header)) as sink:
        try:
            integrate_dbmf(params, state, p0, t_end, dt, stride, sink)
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
    gives, those of :func:`_fmt`, one block at a time.  In JSON each block
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
            self.out.write(self.csv.csv_rows(block))
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
