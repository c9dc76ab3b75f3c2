"""Spans and counters around the benchmark's calls into heleshaw's layers.

`instrument(tracer)` swaps each traced public function of a layer module for
a wrapper that opens a span named `<layer>.<function>`, in every heleshaw
module namespace that holds the function, and restores the originals on
exit.  Nothing in the package itself changes.

Spans are aggregated as they close, per request: the inclusive time of each
span name (only the outermost of nested same-name calls counts), the self
time of each layer (span time minus the time of its child spans) and the
counters the wrappers record.  The layers are the package modules.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "diffpoly", "hodograph", "painleve", "multiscale", "toda", "geometry", "textio")
SUBCOMMANDS = ("gd", "critical", "trace", "painleve", "match", "composite", "frames", "toda")

#: span names; each becomes the per-layer metric `<name>_s`
SPANS = (
    "cli.main", *(f"cli.{name}" for name in SUBCOMMANDS),
    "diffpoly.gd_next",
    "hodograph.find_critical", "hodograph.closed_u0",
    "painleve.integrate", "painleve.eval",
    "multiscale.build_composite", "multiscale.eval", "multiscale.outer_u",
    "multiscale.inner_u", "multiscale.overlap_report",
    "toda.build_inner", "toda.composite",
    "geometry.detect_events", "geometry.emit_frames",
    "textio.write_csv",
)
#: per-request counters, reported as the median over requests that count them
COUNTERS = ("diffpoly.terms", "painleve.nodes", "geometry.events", "geometry.frame_samples",
            "textio.rows", "textio.bytes")


class Tracer:
    """Collects the spans and counters of one request at a time."""

    def __init__(self):
        self.requests: list[dict] = []
        self.solutions: list = []
        self.certify_s: list[float] = []
        self.residual_max = 0.0
        self._stack: list[list] = []
        self._active: set[str] = set()
        self._reset()

    def _reset(self):
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def enter(self, name: str):
        self._active.add(name)
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self, layer: str):
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self._active.discard(name)
        if self._stack:
            self._stack[-1][2] += duration
        self.incl[name] += duration
        self.self_time[layer] += duration - child

    def count(self, key: str, n: float = 1):
        self.counts[key] += n

    def end_request(self) -> dict:
        """Close the current request and return its aggregate."""
        record = {"incl": dict(self.incl), "self": dict(self.self_time), "counts": dict(self.counts)}
        self.requests.append(record)
        self._reset()
        return record

    def certify_pending(self):
        """Time `residual_defects` on each tritronquee built since the last call.

        Runs outside request spans.  The grid is the solver nodes on
        [pole + 0.1, xi0], the span the package certifies at construction.
        """
        for sol in self.solutions:
            lo = sol.pole + 0.1 if sol.pole is not None else sol.xi_reached
            grid = sol.ts[sol.ts >= lo]
            start = time.perf_counter()
            sol.residual_defects(grid)
            self.certify_s.append(time.perf_counter() - start)
            self.residual_max = max(self.residual_max, sol.residual_max)
        self.solutions.clear()


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    from heleshaw.errors import HeleShawError

    layer = name.partition(".")[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name in tracer._active:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except HeleShawError:
            tracer.count(f"{layer}.errors")
            raise
        finally:
            tracer.leave(layer)
        if on_result is not None:
            on_result(tracer, result, args)
        return result

    return traced


def _count_terms(tracer, poly, args):
    tracer.count("diffpoly.terms", len(poly.terms()))


def _keep_solution(tracer, sol, args):
    tracer.count("painleve.nodes", len(sol.ts))
    tracer.solutions.append(sol)


def _count_events(tracer, events, args):
    tracer.count("geometry.events", len(events))


def _count_frames(tracer, manifest, args):
    tracer.count("geometry.frame_samples", sum(f["n_samples"] for f in manifest["frames"]))


def _count_csv(tracer, rows, args):
    tracer.count("textio.rows", rows)
    tracer.count("textio.bytes", os.path.getsize(args[0]))


@contextmanager
def instrument(tracer: Tracer):
    """Route calls into the traced layer functions through span wrappers."""
    import heleshaw
    from heleshaw import cli, diffpoly, geometry, hodograph, multiscale, painleve, textio, toda

    modules = (heleshaw, cli, diffpoly, geometry, hodograph, multiscale, painleve, textio, toda)
    functions = (
        (diffpoly, "gd_next", "diffpoly.gd_next", _count_terms),
        (hodograph, "find_critical_25", "hodograph.find_critical", None),
        (hodograph, "closed_u0", "hodograph.closed_u0", None),
        (painleve, "integrate_tritronquee", "painleve.integrate", _keep_solution),
        (multiscale, "build_composite", "multiscale.build_composite", None),
        (multiscale, "overlap_report", "multiscale.overlap_report", None),
        (toda, "build_toda_inner", "toda.build_inner", None),
        (toda, "toda_composite", "toda.composite", None),
        (geometry, "detect_events", "geometry.detect_events", _count_events),
        (geometry, "emit_frames", "geometry.emit_frames", _count_frames),
        (textio, "write_csv", "textio.write_csv", _count_csv),
        (cli, "main", "cli.main", None),
    )
    methods = (
        (painleve.TritronqueeSolution, ("eval", "eval_many", "eval_extended"), "painleve.eval"),
        (multiscale.CompositeSolution, ("eval", "eval_many"), "multiscale.eval"),
        (multiscale.CompositeSolution, ("outer_u",), "multiscale.outer_u"),
        (multiscale.CompositeSolution, ("inner_u",), "multiscale.inner_u"),
    )
    undo = []
    commands = dict(cli._COMMANDS)
    try:
        for home, attr, name, on_result in functions:
            original = getattr(home, attr)
            wrapper = _wrap(tracer, name, original, on_result)
            for module in modules:
                if getattr(module, attr, None) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for cls, attrs, name in methods:
            for attr in attrs:
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, _wrap(tracer, name, original))
        for sub, handler in commands.items():
            cli._COMMANDS[sub] = _wrap(tracer, f"cli.{sub}", handler)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        cli._COMMANDS.update(commands)


def _median_present(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, import_s: list[float], overhead_ratios: list[float]) -> dict:
    """Per-layer metrics of a traced run: name -> (value, unit).

    Span times and counters are the median over the requests that made the
    call (0 when none did); `<layer>.self_s` likewise; `<layer>.errors` is
    the total over the run.  `cli.import_s` is the median import time of
    the set-up probes; `trace.overhead_pct` compares each traced request
    with the same request run untraced.
    """
    requests = tracer.requests
    metrics: dict[str, tuple[float, str]] = {}
    metrics["cli.import_s"] = (_median_present(import_s), "s")
    for name in SPANS:
        values = [r["incl"][name] for r in requests if name in r["incl"]]
        metrics[f"{name}_s"] = (_median_present(values), "s")
    for key in COUNTERS:
        values = [r["counts"][key] for r in requests if key in r["counts"]]
        metrics[key] = (_median_present(values), "count")
    metrics["painleve.residual_defects_s"] = (_median_present(tracer.certify_s), "s")
    metrics["painleve.residual_max"] = (tracer.residual_max, "1")
    for layer in LAYERS:
        values = [r["self"][layer] for r in requests if layer in r["self"]]
        metrics[f"{layer}.self_s"] = (_median_present(values), "s")
        metrics[f"{layer}.errors"] = (sum(r["counts"].get(f"{layer}.errors", 0) for r in requests), "count")
    ratio = statistics.median(overhead_ratios) if overhead_ratios else 1.0
    metrics["trace.overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    return metrics
