"""In-memory span recorder for the traced benchmark run.

Wrappers are installed from the benchmark's side around the public functions
of each ``levelone`` module; nothing under ``src/`` changes.  Every binding a
caller can reach is replaced: the defining module's attribute, any module that
imported the function by name, the package namespace, and class attributes
for methods.  Deferred imports (``from .recognize import recognize`` inside a
function body) read the patched module attribute at call time.

A span is (name, parent span, operation, start, end).  Spans live in flat
arrays while the run is going and are reduced to per-layer figures, or
written out, only when it ends.  Self time is a span's duration minus the
durations of its direct child spans; calls are nested and single-threaded,
so the children never overlap.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

#: (module, attribute path) of every function the traced run wraps in a span.
SPANNED = (
    ("poly", "poly_gcd"),
    ("parser", "parse_laurent"),
    ("parser", "print_laurent"),
    ("linalg", "rref"),
    ("linalg", "mat_inverse"),
    ("linalg", "nullspace"),
    ("linalg", "char_poly"),
    ("algebra", "Algebra.product"),
    ("algebra", "apply_basis_change"),
    ("algebra", "rebase"),
    ("algebra", "subspace_product"),
    ("algebra", "extend_basis"),
    ("canonical", "construct"),
    ("transport", "invert"),
    ("transport", "ParamMatrix.det"),
    ("transport", "transport"),
    ("transport", "transport_limit"),
    ("transport", "verify_degeneration"),
    ("classify", "classify"),
    ("recognize", "recognize"),
    ("jsonio", "algebra_from_dict"),
    ("jsonio", "family_from_dict"),
    ("jsonio", "witness_to_dict"),
    ("jsonio", "dumps"),
    ("cli", "cmd_classify"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_transport"),
    ("cli", "cmd_recognize"),
)

#: Functions called so often that only their calls are counted, with no span.
COUNTED = (("poly", "poly_mul"),)

#: Spans written out at the end of a traced run; all are kept for the figures.
MAX_WRITTEN_SPANS = 200_000

#: Tags a recognize call can return; "none" means not canonical.
RECOGNIZE_PATHS = ("abelian", "pminus", "pplus", "n3minus", "n3plus", "lambda2", "nu", "none")


def layer_name(module: str, path: str) -> str:
    """Metric prefix for a wrapped function; CLI handlers read as cli.<command>."""
    if module == "cli":
        return "cli." + path.removeprefix("cmd_")
    return f"{module}.{path}"


def per_layer_names() -> list:
    """Every per-layer metric name, in the order BENCHMARK.json lists them."""
    names = []
    for module, path in SPANNED:
        prefix = layer_name(module, path)
        names += [f"{prefix}.calls", f"{prefix}.ms", f"{prefix}.self_ms"]
    names += [f"{layer_name(m, p)}.calls" for m, p in COUNTED]
    names += [f"recognize.path.{tag}.ms" for tag in RECOGNIZE_PATHS]
    names += ["classify.verify_per_op", "trace.ops_per_s"]
    return names


def per_layer_unit(name: str) -> str:
    if name == "trace.ops_per_s":
        return "1/s"
    if name == "classify.verify_per_op":
        return "ratio"
    if name.endswith(".calls"):
        return "calls/op"
    if name.startswith("recognize.path."):
        return "ms/call"
    return "ms/op"


class Tracer:
    """Records spans and counts while ``on``; the benchmark turns it on only
    around each timed operation, so checks and set-up leave no spans."""

    def __init__(self):
        self.on = False
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: dict = defaultdict(int)
        self.path_ns: dict = defaultdict(int)
        self.path_calls: dict = defaultdict(int)
        self._stack: list = []
        self.op = -1
        self._undo: list = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name_id: int, fn, args, kwargs):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = perf_counter_ns()
            self._stack.pop()

    def _wrap_span(self, name: str, fn):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            return tracer._span(name_id, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_recognize(self, name: str, fn):
        """Span plus the time of each call keyed by the tag it returned."""
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            res = tracer._span(name_id, fn, args, kwargs)
            tag = res.form.tag.value if res.form is not None else "none"
            tracer.path_ns[tag] += perf_counter_ns() - t0
            tracer.path_calls[tag] += 1
            return res

        traced.__wrapped__ = fn
        return traced

    def _wrap_count(self, name: str, fn):
        counts = self.counts
        tracer = self

        def counted(*args, **kwargs):
            if tracer.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the listed functions in the loaded package."""
        pkg = importlib.import_module("levelone")
        modules = {m: importlib.import_module(f"levelone.{m}") for m, _ in SPANNED + COUNTED}
        namespaces = [pkg] + [
            mod for name, mod in sorted(sys.modules.items())
            if name.startswith("levelone.") and mod is not None
        ]
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for module, path in table:
                owner = modules[module]
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
                name = layer_name(module, path)
                if kind == "count":
                    wrapper = self._wrap_count(name, original)
                elif path == "recognize":
                    wrapper = self._wrap_recognize(name, original)
                else:
                    wrapper = self._wrap_span(name, original)
                if len(parts) > 1:  # a method: patch the class attribute
                    self._patch(owner, parts[-1], original, wrapper)
                    continue
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------

    def per_layer(self, ops: int, ops_per_s: float, scale: float) -> dict:
        """Per-operation figures for every name in ``per_layer_names()``;
        times are multiplied by ``scale``, the run's speed-gauge factor."""
        n = len(self.names)
        calls = [0] * n
        total = [0] * n
        child = [0] * n
        verify_in_classify = 0
        verify_id = self._ids.get("transport.verify_degeneration")
        classify_id = self._ids.get("classify.classify")
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(starts)):
            nid = names[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += dur
            p = parents[i]
            if p >= 0:
                child[names[p]] += dur
                if nid == verify_id and names[p] == classify_id:
                    verify_in_classify += 1
        per_op = 1.0 / ops if ops else 0.0
        ms_per_op = scale / 1e6 * per_op
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid] * per_op
            out[f"{name}.ms"] = total[nid] * ms_per_op
            out[f"{name}.self_ms"] = (total[nid] - child[nid]) * ms_per_op
        for name, count in self.counts.items():
            out[f"{name}.calls"] = count * per_op
        for tag in RECOGNIZE_PATHS:
            c = self.path_calls.get(tag, 0)
            out[f"recognize.path.{tag}.ms"] = self.path_ns.get(tag, 0) * scale / 1e6 / c if c else 0.0
        classify_calls = calls[classify_id] if classify_id is not None else 0
        out["classify.verify_per_op"] = (
            verify_in_classify / classify_calls if classify_calls else 0.0
        )
        out["trace.ops_per_s"] = ops_per_s
        return {name: out.get(name, 0.0) for name in per_layer_names()}

    def dump(self, path, header: dict) -> None:
        """Write the recorded spans (columnar, ns from the first span) as JSON,
        at most MAX_WRITTEN_SPANS of them."""
        kept = min(len(self.span_start), MAX_WRITTEN_SPANS)
        base = self.span_start[0] if kept else 0
        doc = dict(header)
        doc["span_names"] = self.names
        doc["spans_recorded"] = len(self.span_start)
        doc["spans_written"] = kept
        doc["spans"] = {
            "name": self.span_name[:kept].tolist(),
            "parent": self.span_parent[:kept].tolist(),
            "op": self.span_op[:kept].tolist(),
            "start_ns": [s - base for s in self.span_start[:kept]],
            "end_ns": [e - base for e in self.span_end[:kept]],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
