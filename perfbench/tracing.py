"""Span tracer for the traced run (``--trace 1``).

The tracer wraps graphlab's public entry points from the outside: it swaps
each target for a wrapper wherever a graphlab module holds a reference to it
(module attributes, dispatch tables, class attributes) and swaps the
originals back afterwards.  Nothing under src/ changes.

A span is ``[name, start, end, parent, request]``; spans nest because the
program runs on one thread, so a span's self time is its duration minus the
durations of its direct children.  Hot inner calls (adjacent, bfs_row,
sqf_decompose, RadicalSum construction) only bump counters.  Targets that a
later version of the program no longer has are skipped, so their metrics
read 0 rather than breaking the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

from oracle import INDEX_NAMES

#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = (
    ("graphs.build_s", "s", "lower"),
    ("graphs.edges_s", "s", "lower"),
    ("graphs.export_s", "s", "lower"),
    ("graphs.vertices", "count", "lower"),
    ("graphs.edges", "count", "lower"),
    ("graphs.adjacent_calls", "count", "lower"),
    ("metric.rows_s", "s", "lower"),
    ("metric.rows", "count", "lower"),
    ("metric.bfs_rows", "count", "lower"),
    ("metric.transmissions_s", "s", "lower"),
    ("metric.matrix_s", "s", "lower"),
    *((f"indices.{name}.s", "s", "lower") for name in INDEX_NAMES),
    ("indices.dispatch_s", "s", "lower"),
    ("indices.values", "count", "higher"),
    ("indices.r_bits", "bit", "lower"),
    ("exact.radical_s", "s", "lower"),
    ("exact.radical_ops", "count", "lower"),
    ("exact.sqf_calls", "count", "lower"),
    ("exact.radical_terms", "count", "lower"),
    ("exact.render_s", "s", "lower"),
    ("exact.render_calls", "count", "lower"),
    ("formulas.s", "s", "lower"),
    ("formulas.checks", "count", "higher"),
    ("claims.s", "s", "lower"),
    ("claims.evaluated", "count", "higher"),
    ("claims.match", "count", "higher"),
    ("claims.mismatch", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.requests", "count", "higher"),
    ("cli.out_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_RADICAL_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")
_R_INDICES = ("r1", "r2", "r3")


def self_times(spans, metric_of: dict[str, str]) -> Counter:
    """Sum of span self times per metric: duration minus direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        out[metric_of[name]] += end - start - covered[i]
    return out


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.metric_of: dict[str, str] = {}
        self.request = -1
        self._stack: list[int] = []
        self._undo: list = []
        self._graphs: dict[int, object] = {}

    def start_request(self, request: int) -> None:
        self.request = request
        self._graphs.clear()

    def take(self) -> tuple[list[list], Counter]:
        """Spans and counters recorded so far; starts a fresh recording."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        self._graphs.clear()
        return spans, counts

    # --- wrappers ------------------------------------------------------

    def span(self, name: str, metric: str, fn, after=None):
        """Wrap fn in a span; after(args, result) runs once it returns."""
        self.metric_of[name] = metric
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, metric: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def rows(self, name: str, metric: str, fn):
        """Wrap a generator of distance rows: one span per row produced."""
        next_row, counts = self.span(name, metric, next), self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                try:
                    row = next_row(it)
                except StopIteration:
                    return
                counts["metric.rows"] += 1
                yield row

        return wrapper

    # --- installation --------------------------------------------------

    def _replace(self, modules, orig, new) -> None:
        """Point every reference a graphlab module holds to orig at new."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)
                    self._undo.append((setattr, module, attr, orig))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is orig:
                            value[key] = new
                            self._undo.append((dict.__setitem__, value, key, orig))

    def _patch_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, attr, new)
        self._undo.append((setattr, cls, attr, raw))

    def install(self) -> None:
        """Wrap the entry points of every graphlab layer."""
        from graphlab import claims, cli, exact, formulas, graphs, indices, metric

        modules = [m for n, m in sys.modules.items() if n == "graphlab" or n.startswith("graphlab.")]
        span, count, counts = self.span, self.count, self.counts

        def function(module, attr, make):
            orig = getattr(module, attr, None)
            if callable(orig):
                self._replace(modules, orig, make(orig))

        def classes(module):
            return [c for c in vars(module).values()
                    if inspect.isclass(c) and c.__module__ == module.__name__]

        # graphs
        def built(args, g):
            counts["graphs.vertices"] += getattr(g, "order", 0)

        def edges_listed(args, result):
            g = args[0]
            if id(g) not in self._graphs:
                self._graphs[id(g)] = g
                counts["graphs.edges"] += len(result)

        for attr in ("build_gamma", "build_general"):
            function(graphs, attr, lambda f, a=attr: span(f"graphs.{a}", "graphs.build_s", f, built))
        for cls in classes(graphs):
            for attr, make in (
                ("edges", lambda f: span("graphs.edges", "graphs.edges_s", f, edges_listed)),
                ("degrees", lambda f: span("graphs.degrees", "graphs.edges_s", f)),
                ("to_json_dict", lambda f: span("graphs.to_json_dict", "graphs.export_s", f)),
                ("to_dot", lambda f: span("graphs.to_dot", "graphs.export_s", f)),
                ("adjacent", lambda f: count("graphs.adjacent_calls", f)),
            ):
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, make)

        # metric
        function(metric, "distance_rows", lambda f: self.rows("metric.distance_rows", "metric.rows_s", f))
        function(metric, "bfs_row", lambda f: count("metric.bfs_rows", f))
        for attr in ("transmissions", "transmission"):
            function(metric, attr, lambda f, a=attr: span(f"metric.{a}", "metric.transmissions_s", f))
        for attr in ("distance_matrix", "distance_matrix_bfs"):
            function(metric, attr, lambda f, a=attr: span(f"metric.{a}", "metric.matrix_s", f))
        for cls in classes(metric):
            if "to_csv" in cls.__dict__:
                self._patch_method(cls, "to_csv", lambda f: span("metric.to_csv", "metric.matrix_s", f))

        # indices
        def valued(name):
            def after(args, value):
                counts["indices.values"] += 1
                if name in _R_INDICES and isinstance(value, int):
                    counts["indices.r_bits"] += value.bit_length()
            return after

        for name in INDEX_NAMES:
            function(indices, name, lambda f, n=name: span(f"indices.{n}", f"indices.{n}.s", f, valued(n)))
        for attr in ("compute_index", "compute_indices"):
            function(indices, attr, lambda f, a=attr: span(f"indices.{a}", "indices.dispatch_s", f))

        # exact
        radical = getattr(exact, "RadicalSum", None)
        if radical is not None:
            for attr, raw in list(vars(radical).items()):
                if attr in _RADICAL_ARITHMETIC or isinstance(raw, (classmethod, staticmethod)):
                    self._patch_method(radical, attr, lambda f, a=attr: span(
                        f"exact.RadicalSum.{a}", "exact.radical_s", f))

            def constructed(init):
                @functools.wraps(init)
                def wrapper(self_, *args, **kwargs):
                    counts["exact.radical_ops"] += 1
                    terms = args[0] if args else kwargs.get("terms")
                    if hasattr(terms, "__len__"):
                        counts["exact.radical_terms"] += len(terms)
                    return init(self_, *args, **kwargs)
                return wrapper

            self._patch_method(radical, "__init__", constructed)
        function(exact, "inv_sqrt", lambda f: span("exact.inv_sqrt", "exact.radical_s", f))
        function(exact, "sqf_decompose", lambda f: count("exact.sqf_calls", f))
        for attr in ("to_decimal", "value_to_json", "format_value"):
            function(exact, attr, lambda f, a=attr: count("exact.render_calls", span(
                f"exact.{a}", "exact.render_s", f)))

        # formulas
        for attr, fn in list(vars(formulas).items()):
            if inspect.isfunction(fn) and fn.__module__ == formulas.__name__ and not attr.startswith("_"):
                function(formulas, attr, lambda f, a=attr: count("formulas.checks", span(
                    f"formulas.{a}", "formulas.s", f)))

        # claims
        def graded(args, reports):
            counts["claims.evaluated"] += len(reports)
            for r in reports:
                verdict = getattr(r, "verdict", None)
                if verdict in ("match", "mismatch"):
                    counts[f"claims.{verdict}"] += 1

        function(claims, "run_all", lambda f: span("claims.run_all", "claims.s", f, graded))
        function(claims, "render_report", lambda f: span("claims.render_report", "claims.s", f))

        # cli
        function(cli, "main", lambda f: count("cli.requests", span("cli.main", "cli.self_s", f)))

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, orig = self._undo.pop()
            setter(target, key, orig)
