"""Per-function call counts and self times for the traced run.

``Tracer.install`` wraps the listed public functions of inconic's modules
and rebinds each wrapper under every name, in every ``inconic.*``
namespace, that refers to the original function: ``from .geometry import
x`` copies the name, so rebinding the defining module alone would miss
most calls.  Nothing under ``src/`` changes.  Spans stay in memory; the
aggregates are read at the end of the run and the spans of the first ops
are written out by the caller.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

# Layer -> wrapped public functions.
WRAPPED = {
    "geometry": ("validate_quad", "classify_conic", "ellipse_from_conic",
                 "ellipse_from_foci_point", "conic_from_ellipse", "transform_conic",
                 "tangency_residual", "tangency_point", "adjugate3", "conic_distance"),
    "marden": ("stable_quadratic_roots",),
    "inscribed": ("locus", "normalize", "locus_line", "foci_quadratic",
                  "weights_from_center", "chord_x", "inscribe_at_center",
                  "inscribe_at_param", "tangent_conic_at_center"),
    "pencil": ("pencil_from_lines", "member_with_center"),
    "area": ("max_area",),
    "fmt": ("dumps",),
    "svg": ("scene",),
}
LABELS = tuple(f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs)


class Tracer:
    """Counts calls and self time (duration minus wrapped children) per
    function, and checks per op that the spans fit in its wall time."""

    def __init__(self, span_ops: int = 0):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.edges = defaultdict(int)      # (parent label, child label) -> calls
        self.spans = []                    # (op, id, parent id, label, start, end)
        self.span_ops = span_ops
        self.ops = 0
        self.wall_ns = 0                   # harness-timed op wall time
        self.covered_ns = 0                # of which inside top-level spans
        self.unbalanced_ops = 0
        self._stack = []                   # open spans: [id, child_ns, label]
        self._next_id = 0
        self._op_top = 0                   # this op's time inside top-level spans
        self._saved = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "inconic" or name.startswith("inconic.")]
        for layer, names in WRAPPED.items():
            defining = sys.modules[f"inconic.{layer}"]
            for fname in names:
                original = getattr(defining, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, label, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self._next_id, 0, label]
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                own = duration - span[1]
                self.calls[label] += 1
                self.self_ns[label] += own
                if parent is None:
                    self._op_top += duration
                else:
                    parent[1] += duration
                    self.edges[(parent[2], label)] += 1
                if self.ops < self.span_ops:
                    self.spans.append((self.ops, span[0], -1 if parent is None else parent[0],
                                       label, start, end))
        return traced

    def end_op(self, wall_ns: int) -> None:
        """Close one op timed by the harness.  The wrapped self times sum to
        the time inside top-level spans by construction, so the op balances
        when the unwrapped remainder (wall time minus that) is not negative
        and no span is left open; an op where that fails is counted."""
        if self._stack or wall_ns - self._op_top < 0:
            self.unbalanced_ops += 1
        self.wall_ns += wall_ns
        self.covered_ns += self._op_top
        self._op_top = 0
        self._stack.clear()
        self.ops += 1

    def per_op(self) -> dict:
        """``<label>.calls`` and ``<label>.self_us`` per op, every label."""
        ops = max(self.ops, 1)
        out = {}
        for label in LABELS:
            out[f"{label}.calls"] = self.calls[label] / ops
            out[f"{label}.self_us"] = self.self_ns[label] / ops / 1e3
        return out
