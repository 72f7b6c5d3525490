"""Span tracing of the program's layers, installed from the benchmark.

``Tracer.install`` wraps the public functions listed in ``SPANS`` (timed
spans) and ``COUNTS`` (call counts only) in every ``tangles`` module that
holds them, since modules import each other's functions by name.  Spans
are kept in memory as flat arrays and written out once, when the run ends.
Nothing is installed in an untraced run.

A layer's self time is its spans' duration minus the time covered by
their child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import tangles

# (module, attribute path) of every function traced as a span.
SPANS = (
    ("cli", "parse_expr"),
    ("cli", "to_diagram"),
    ("diagram", "validate"),
    ("diagram", "trace_components"),
    ("diagram", "Slice.layout"),
    ("rewrite", "expand"),
    ("rewrite", "applicable_moves"),
    ("rewrite", "apply_move"),
    ("rewrite", "reduce_diagram"),
    ("rewrite", "normalize_planar"),
    ("rewrite", "equal"),
    ("evaluate", "bracket_state_sum"),
    ("evaluate", "evaluate"),
    ("evaluate", "validate_datum"),
    ("rings", "kron_all"),
    ("rings", "Matrix.matmul"),
    ("segal", "restrict_chain"),
    ("segal", "cut_fiber_product"),
    ("segal", "colimit_truncated"),
    ("segal", "complete"),
    ("segal", "presentation_of"),
    ("simplex", "outer_hull"),
    ("words", "free_product_enumerate"),
    ("words", "free_product_normalize"),
)

# Functions only counted: cheap and hot, so a span would mostly time itself.
COUNTS = (
    ("diagram", "compose"),
    ("diagram", "Slice.construct"),
    ("evaluate", "kauffman_datum"),
    ("evaluate", "RigidDatum.event_matrix"),
    ("rings", "Laurent.mul"),
    ("segal", "pieces_of"),
    ("simplex", "hull_image"),
    ("simplex", "compose_monotone"),
)

# Method names that differ from the attribute they live under.
_METHODS = {
    "Matrix.matmul": ("__matmul__",),
    "Laurent.mul": ("__mul__", "__rmul__"),
    "Slice.construct": ("__post_init__",),
}

MOVE_KINDS = ("ZIGZAG", "INTERCHANGE", "R2", "R3", "SYM_COLLAPSE", "KINK2")
VERDICTS = ("EQUAL", "DISTINCT", "UNKNOWN")

# name -> unit of every per-layer metric, in report order.
METRICS = {
    "cli.to_diagram.self_ms": "ms",
    "cli.parse_expr.self_ms": "ms",
    "diagram.compose.calls": "count",
    "diagram.Slice.layout.calls": "count",
    "diagram.Slice.layout.self_ms": "ms",
    "diagram.layout_per_slice": "ratio",
    "diagram.trace_components.calls": "count",
    "diagram.trace_components.self_ms": "ms",
    "diagram.validate.self_ms": "ms",
    "rewrite.expand.calls": "count",
    "rewrite.expand.noop_ratio": "ratio",
    "rewrite.applicable_moves.calls": "count",
    "rewrite.applicable_moves.self_ms": "ms",
    "rewrite.moves_found": "count",
    **{f"rewrite.apply_move.{k}.calls": "count" for k in MOVE_KINDS},
    "rewrite.applied_per_found": "ratio",
    "rewrite.equal.apply_move_per_call": "ratio",
    **{f"rewrite.equal.verdict.{v}": "count" for v in VERDICTS},
    "rewrite.reduce_diagram.self_ms": "ms",
    "rewrite.normalize_planar.self_ms": "ms",
    "evaluate.bracket_state_sum.calls": "count",
    "evaluate.bracket_state_sum.self_ms": "ms",
    "evaluate.state_sum_per_invariant": "ratio",
    "evaluate.evaluate.self_ms": "ms",
    "evaluate.evaluate.peak_dim": "entries",
    "evaluate.evaluate.peak_nnz": "entries",
    "evaluate.validate_datum.calls": "count",
    "evaluate.validate_datum.self_ms": "ms",
    "evaluate.kauffman_datum.calls": "count",
    "evaluate.RigidDatum.event_matrix.calls": "count",
    "rings.kron_all.calls": "count",
    "rings.kron_all.self_ms": "ms",
    "rings.Matrix.matmul.calls": "count",
    "rings.Matrix.matmul.self_ms": "ms",
    "rings.Laurent.mul.calls": "count",
    "segal.restrict_chain.calls": "count",
    "segal.restrict_chain.self_ms": "ms",
    "segal.pieces_of.calls": "count",
    "segal.cut_fiber_product.self_ms": "ms",
    "segal.colimit_truncated.self_ms": "ms",
    "segal.complete.self_ms": "ms",
    "segal.presentation_of.self_ms": "ms",
    "simplex.outer_hull.calls": "count",
    "simplex.outer_hull.self_ms": "ms",
    "simplex.hull_image.calls": "count",
    "simplex.compose_monotone.calls": "count",
    "words.free_product_enumerate.self_ms": "ms",
    "words.free_product_normalize.calls": "count",
    "words.free_product_normalize.self_ms": "ms",
    "trace.overhead": "ratio",
}

# By import path: the package attribute ``tangles.evaluate`` is the
# function, not the module.
_MODULES = {
    name: importlib.import_module(f"tangles.{name}")
    for name in ("cli", "diagram", "evaluate", "rewrite", "rings", "segal", "simplex", "words")
}


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when nothing was measured (the layer did not run)."""
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span: name id, index of the parent span (-1 for a
        # root), start and end in seconds
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; ``before(args)`` and ``after(args, result)``
        record counts that need the call's arguments or result."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_op(self, kind: str, call):
        """Run one op as a root span, so every layer span has an op above it."""
        return self.span(f"op.{kind}", call)()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for module, path in SPANS:
            before, after = hooks.get(f"{module}.{path}", (None, None))
            self._patch(module, path, lambda fn, n=f"{module}.{path}", b=before, a=after: self.span(n, fn, b, a))
        for module, path in COUNTS:
            self._patch(module, path, lambda fn, n=f"{module}.{path}": self.counter(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, path: str, make) -> None:
        mod = _MODULES[module]
        if "." in path:
            cls_name, method = path.split(".")
            cls = getattr(mod, cls_name)
            attrs = _METHODS.get(path, (method,))
            wrapper = make(getattr(cls, attrs[0]))
            for attr in attrs:
                self._patches.append((cls, attr, getattr(cls, attr)))
                setattr(cls, attr, wrapper)
            return
        original = getattr(mod, path)
        wrapper = make(original)
        # every module that imported the function by name holds its own reference
        holders = [tangles] + [m for n, m in sys.modules.items() if n.startswith("tangles.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def _hooks(self) -> dict:
        counts, peaks = self.counts, self.peaks

        def expand_before(args):
            if all(len(s.events) == 1 for s in args[0].slices):
                counts["rewrite.expand.noop"] += 1

        def moves_after(args, result):
            counts["rewrite.moves_found"] += len(result)

        equal_id = self._name_id("rewrite.equal")
        names, stack = self.span_name, self._stack

        def apply_before(args):
            counts[f"rewrite.apply_move.{args[1].kind.name}.calls"] += 1
            if any(names[i] == equal_id for i in stack):
                counts["rewrite.equal.apply_move"] += 1

        def equal_after(args, result):
            counts[f"rewrite.equal.verdict.{result.name}"] += 1

        def kron_after(args, result):
            peaks["evaluate.evaluate.peak_dim"] = max(
                peaks["evaluate.evaluate.peak_dim"], result.rows * result.cols
            )
            peaks["evaluate.evaluate.peak_nnz"] = max(
                peaks["evaluate.evaluate.peak_nnz"], len(result.entries)
            )

        return {
            "rewrite.expand": (expand_before, None),
            "rewrite.applicable_moves": (None, moves_after),
            "rewrite.apply_move": (apply_before, None),
            "rewrite.equal": (None, equal_after),
            "rings.kron_all": (None, kron_after),
        }

    # -- results ---------------------------------------------------------

    def aggregate(self) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name."""
        n = len(self.span_start)
        child = [0.0] * n
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n - 1, -1, -1):
            dur = self.span_end[i] - self.span_start[i]
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur - child[i]
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur
        return calls, self_s

    def per_layer(self, invariant_ops: int, overhead: float) -> dict[str, float]:
        calls, self_s = self.aggregate()
        calls.update(self.counts)
        equal_calls = calls["rewrite.equal"]
        applied = sum(calls[f"rewrite.apply_move.{k}.calls"] for k in MOVE_KINDS)
        values: dict[str, float] = {}
        for name in METRICS:
            base, _, stat = name.rpartition(".")
            if stat == "calls":
                values[name] = calls[base] if base in calls else calls[name]
            elif stat == "self_ms":
                values[name] = self_s[base] * 1000.0
        values.update(
            {
                "diagram.layout_per_slice": _ratio(calls["diagram.Slice.layout"], calls["diagram.Slice.construct"]),
                "rewrite.expand.noop_ratio": _ratio(calls["rewrite.expand.noop"], calls["rewrite.expand"]),
                "rewrite.moves_found": calls["rewrite.moves_found"],
                "rewrite.applied_per_found": _ratio(applied, calls["rewrite.moves_found"]),
                "rewrite.equal.apply_move_per_call": _ratio(calls["rewrite.equal.apply_move"], equal_calls),
                "evaluate.state_sum_per_invariant": _ratio(calls["evaluate.bracket_state_sum"], invariant_ops),
                "evaluate.evaluate.peak_dim": self.peaks["evaluate.evaluate.peak_dim"],
                "evaluate.evaluate.peak_nnz": self.peaks["evaluate.evaluate.peak_nnz"],
                "trace.overhead": overhead,
            }
        )
        for v in VERDICTS:
            values[f"rewrite.equal.verdict.{v}"] = calls[f"rewrite.equal.verdict.{v}"]
        return {name: values[name] for name in METRICS}

    def write(self, path: Path) -> None:
        """One JSON header line (span names, span count), then the four
        span arrays (name id, parent index as int32; start, end as float64
        seconds) as raw native-endian bytes, in that order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_start)}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
