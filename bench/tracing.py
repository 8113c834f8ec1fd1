"""Span and counter recorders wrapped around vaxgame's module-level names.

The traced run replaces names in the ``vaxgame.cli``, ``vaxgame.degree``,
``vaxgame.game``, ``vaxgame.planner``, ``vaxgame.bounds`` and
``vaxgame.dbmf`` namespaces with wrappers that record spans (name, start,
end, parent span, job) or bump counters, then restores the originals.
Nothing inside the package changes: calls a module makes to its own
functions are invisible, so e.g. ``dbmf._ode_rhs`` is only countable
because ``integrate_dbmf`` and ``settle_dbmf`` look it up as a global.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import itertools
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (job, span_id, parent_id, name, start, end)
        self.counts = defaultdict(int)  # (job, name) -> count
        self.maxima = defaultdict(float)  # (job, name) -> largest observed value
        self.job = None
        self._stack = []  # (span_id, name) of the open spans
        self._ids = itertools.count()
        self._patches = []

    # -- recording -------------------------------------------------------
    def call(self, name, fn, args, kwargs, observe=None, nested_only=False):
        """Run ``fn`` as span ``name``; with ``nested_only`` the span is kept
        only if a span was recorded inside it."""
        sid = next(self._ids)
        stack = self._stack
        spans = self.spans
        parent = stack[-1][0] if stack else None
        before = len(spans)
        stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if not nested_only or len(spans) != before:
                spans.append((self.job, sid, parent, name, t0, t1))
        if observe is not None:
            observe(result, args)
        return result

    def count(self, name, n=1):
        self.counts[(self.job, name)] += n

    def observe_max(self, name, value):
        key = (self.job, name)
        if value > self.maxima[key]:
            self.maxima[key] = value

    def spanned(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.job, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr, value, item=False):
        if item:
            self._patches.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr), False))
            setattr(owner, attr, value)

    def install(self):
        """Wrap the vaxgame names the benchmark traces; undo with :meth:`uninstall`."""
        import vaxgame.bounds as bounds
        import vaxgame.cli as cli
        import vaxgame.dbmf as dbmf
        import vaxgame.degree as degree
        import vaxgame.game as game
        import vaxgame.planner as planner

        tracer = self

        self._patch(cli, "main", self.spanned("cli.main", cli.main))
        self._patch(cli, "load_scenario", self.spanned("cli.load_scenario", cli.load_scenario))
        for key, fn in list(cli.COMMANDS.items()):
            # main dispatches through this table, not through the names
            self._patch(cli.COMMANDS, key, self.spanned(f"cli.{fn.__name__}", fn), item=True)
        self._patch(degree, "power_law", self.spanned("degree.power_law", degree.power_law))

        for mod in (game, planner):
            self._patch(mod, "weight", self.counted("weighting.weight.calls", mod.weight))
        for mod in (game, bounds):
            self._patch(
                mod, "weight_inverse", self.counted("weighting.weight_inverse.calls", mod.weight_inverse)
            )

        def residual(result, _args):
            tracer.observe_max("dbmf.endemic_state.max_residual", result.residual)

        for mod in (dbmf, game, planner, bounds):
            self._patch(
                mod, "endemic_state", self.spanned("dbmf.endemic_state", mod.endemic_state, residual)
            )

        def batch_rows(_result, args):
            rows, cols = args[1].shape if args[1].ndim == 2 else (1, args[1].size)
            tracer.count("dbmf.batch_endemic_v.rows", rows)
            tracer.count("dbmf.batch_endemic_v.row_degrees", rows * cols)

        self._patch(
            planner,
            "batch_endemic_v",
            self.spanned("dbmf.batch_endemic_v", planner.batch_endemic_v, batch_rows),
        )
        self._patch(dbmf, "settle_dbmf", self.spanned("dbmf.settle_dbmf", dbmf.settle_dbmf))
        self._patch(cli, "integrate_dbmf", self.spanned("dbmf.integrate_dbmf", cli.integrate_dbmf))

        rhs = dbmf._ode_rhs
        counts = self.counts
        stack = self._stack

        def ode_rhs(*args):
            counts[(tracer.job, "dbmf.rhs_evals")] += 1
            counts[(tracer.job, stack[-1][1] + ".rhs_evals")] += 1
            return rhs(*args)

        self._patch(dbmf, "_ode_rhs", ode_rhs)

        for mod in (cli, bounds):
            self._patch(mod, "solve_pne", self.spanned("game.solve_pne", mod.solve_pne))
            self._patch(mod, "ThresholdLadder", _counting_ladder(self, mod.ThresholdLadder))

        def certificate(result, _args):
            tracer.observe_max("game.max_cert_violation", result.max_violation)

        self._patch(cli, "verify_pne", self.spanned("game.verify_pne", cli.verify_pne, certificate))
        self._patch(cli, "SocialOptimumSolver", _traced_solver(self, cli.SocialOptimumSolver))
        for mod in (cli, planner):
            self._patch(mod, "social_cost", self.spanned("planner.social_cost", mod.social_cost))

        def sandwich(report, _args):
            tracer.count("bounds.points", len(report.points))
            tracer.count("bounds.uninformative_points", sum(p.uninformative for p in report.points))

        self._patch(
            cli, "ratio_sandwich", self.spanned("bounds.ratio_sandwich", cli.ratio_sandwich, sandwich)
        )

    def uninstall(self):
        while self._patches:
            owner, attr, original, item = self._patches.pop()
            if item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def _counting_ladder(tracer, base):
    """Ladder subclass that counts lookups and spans the lookups that fill a rung.

    A lookup fills a rung when it records a span (the endemic solve); a
    hit returns from the cache without one and costs a counter bump only.
    """

    class CountingLadder(base):
        def v_at(self, index):
            tracer.count("game.ladder.v_at_calls")
            return tracer.call("game.ladder.fill", base.v_at, (self, index), {}, nested_only=True)

    return CountingLadder


def _traced_solver(tracer, base):
    class TracedSolver(base):
        def solve(self, *args, **kwargs):
            return tracer.call("planner.solve", base.solve, (self,) + args, kwargs)

    return TracedSolver


# -- aggregation -----------------------------------------------------------


def job_layers(tracer: Tracer, job) -> dict:
    """Per-name totals for one job: calls, total_s, self_s, durations, top-level time."""
    spans = [s for s in tracer.spans if s[0] == job]
    child_time = defaultdict(float)
    for _, _sid, parent, _name, t0, t1 in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    layers = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
    top = 0.0
    for _, sid, parent, name, t0, t1 in spans:
        entry = layers[name]
        entry["calls"] += 1
        entry["total_s"] += t1 - t0
        entry["self_s"] += (t1 - t0) - child_time[sid]
        entry["durations"].append(t1 - t0)
        if parent is None:
            top += t1 - t0
    return {"layers": dict(layers), "top_level_s": top}


def per_layer_metrics(tracer: Tracer, job, job_s: float, artifact_bytes: int) -> dict:
    """The per-layer metric values of one traced job (units as in BENCHMARK.json)."""
    summary = job_layers(tracer, job)
    layers = summary["layers"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def layer(name):
        return layers.get(name, empty)

    def count(name):
        return tracer.counts.get((job, name), 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    endemic = layer("dbmf.endemic_state")
    batch = layer("dbmf.batch_endemic_v")
    settle = layer("dbmf.settle_dbmf")
    integrate = layer("dbmf.integrate_dbmf")
    ladder_calls = count("game.ladder.v_at_calls")
    filled = layer("game.ladder.fill")["calls"]
    solves = layer("planner.solve")["durations"]
    steps_integrate = count("dbmf.integrate_dbmf.rhs_evals") // 4
    steps_all = count("dbmf.rhs_evals") // 4
    return {
        "cli.load_scenario_s": layer("cli.load_scenario")["total_s"],
        # main's own time: argument parsing and the artifact write
        "cli.write_self_s": layer("cli.main")["self_s"],
        "cli.artifact_bytes": artifact_bytes,
        "degree.power_law_s": layer("degree.power_law")["total_s"],
        "weighting.weight.calls": count("weighting.weight.calls"),
        "weighting.weight_inverse.calls": count("weighting.weight_inverse.calls"),
        "dbmf.endemic_state.calls": endemic["calls"],
        "dbmf.endemic_state.self_s": endemic["self_s"],
        "dbmf.endemic_state.us_per_call": ratio(endemic["self_s"], endemic["calls"], 1e6),
        "dbmf.endemic_state.max_residual": tracer.maxima.get((job, "dbmf.endemic_state.max_residual"), 0.0),
        "dbmf.batch_endemic_v.calls": batch["calls"],
        "dbmf.batch_endemic_v.rows": count("dbmf.batch_endemic_v.rows"),
        "dbmf.batch_endemic_v.self_s": batch["self_s"],
        "dbmf.batch_endemic_v.ns_per_row_degree": ratio(
            batch["self_s"], count("dbmf.batch_endemic_v.row_degrees"), 1e9
        ),
        "dbmf.settle_dbmf.calls": settle["calls"],
        "dbmf.settle_dbmf.self_s": settle["self_s"],
        "dbmf.integrate_dbmf.self_s": integrate["self_s"],
        "dbmf.integrate_dbmf.steps": steps_integrate,
        "dbmf.rhs_evals": count("dbmf.rhs_evals"),
        "dbmf.rk4_steps_per_s": ratio(steps_all, settle["self_s"] + integrate["self_s"]),
        "game.solve_pne.calls": layer("game.solve_pne")["calls"],
        "game.solve_pne.self_s": layer("game.solve_pne")["self_s"],
        "game.ladder.v_at_calls": ladder_calls,
        "game.ladder.rungs_filled": filled,
        "game.ladder.hit_ratio": ratio(ladder_calls - filled, ladder_calls),
        "game.ladder.fill_s": layer("game.ladder.fill")["total_s"],
        "game.verify_pne.calls": layer("game.verify_pne")["calls"],
        "game.verify_pne.self_s": layer("game.verify_pne")["self_s"],
        "game.max_cert_violation": tracer.maxima.get((job, "game.max_cert_violation"), 0.0),
        "planner.first_solve_s": solves[0] if solves else 0.0,
        "planner.solve_s_p50": statistics.median(solves[1:]) if len(solves) > 1 else 0.0,
        "planner.social_cost.calls": layer("planner.social_cost")["calls"],
        "planner.social_cost.self_s": layer("planner.social_cost")["self_s"],
        "bounds.ratio_sandwich_s": layer("bounds.ratio_sandwich")["total_s"],
        "bounds.points": count("bounds.points"),
        "bounds.uninformative_points": count("bounds.uninformative_points"),
        "trace.top_span_coverage": ratio(summary["top_level_s"], job_s),
    }


def dump_spans(tracer: Tracer, path) -> None:
    """Write every recorded span, one tab-separated line each."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("job\tspan\tparent\tname\tstart\tend\n")
        for job, sid, parent, name, t0, t1 in tracer.spans:
            fh.write(f"{job}\t{sid}\t{'' if parent is None else parent}\t{name}\t{t0!r}\t{t1!r}\n")
