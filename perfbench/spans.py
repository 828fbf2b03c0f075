"""Span tracing of the library's layers, from outside the library.

``install(recorder)`` wraps the public functions of each layer, in every
``dyadic_spaces`` module that binds them, so that each call records a span:
its name, start, end, parent span and the op it belongs to.  Spans stay in
memory until the run ends.  Nothing is wrapped unless the run is traced, and
the wrappers record only while ``recorder.enabled`` is set, so a traced run
can interleave traced and untraced passes.

Self time shares every instant of an op equally among the innermost spans
open at that instant.  Spans nested in one thread thus get their duration
minus the time their children cover, and the two worker threads of a
``--threads 2`` op split the time they overlap, so the self times of an op
add up to its duration.

In memory mode each span also records the tracemalloc peak of its own code,
measured from the traced size when the span, or its last child, began; the
``seqspace.kernel.*`` peaks therefore exclude a geometry compiled inside the
norm call.  tracemalloc keeps one peak per process, so the two threads of a
``--threads 2`` op can blur each other's peaks.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

# The package namespace re-exports functions under some module names (its
# ``classify`` is the function), so take the modules from the import system.
analyze, classify, dyadic, equivalence, seqspace, witness = (
    importlib.import_module(f"dyadic_spaces.{name}")
    for name in ("analyze", "classify", "dyadic", "equivalence", "seqspace", "witness")
)

# span fields
NAME, START, END, PARENT, OP, COUNTS, SEG_BASE, SELF_PEAK = range(8)

ROOT = "cli"
BUILD = "seqspace.build"
GEOMETRY = "seqspace.geometry"
KERNELS = {
    "f_type_norm": "f",
    "b_type_norm": "b",
    "cmo_norm": "cmo",
    "bbmo_norm": "bbmo",
    "f_inf_inf_norm": "finfinf",
}


class Recorder:
    """In-memory span store; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False  # the wrappers call straight through when unset
        self.memory = False  # also record tracemalloc peaks
        self.op = None
        self._local = threading.local()
        self._root = None  # parent of spans opened in pool threads

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = [name, 0.0, 0.0, parent, self.op, None, 0, 0]
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if stack:
                top = stack[-1]
                top[SELF_PEAK] = max(top[SELF_PEAK], peak - top[SEG_BASE])
            tracemalloc.reset_peak()
            span[SEG_BASE] = cur
        stack.append(span)
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span: list, counts: dict | None = None) -> None:
        span[END] = time.perf_counter()
        span[COUNTS] = counts
        stack = self._stack()
        stack.pop()
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            span[SELF_PEAK] = max(span[SELF_PEAK], peak - span[SEG_BASE])
            if stack:
                stack[-1][SEG_BASE] = cur
            tracemalloc.reset_peak()

    def open_op(self, op) -> list:
        """Root span of one op; spans of its pool threads hang under it."""
        self.op = op
        self._root = self.open(ROOT)
        return self._root

    def close_op(self, span: list, out_bytes: int) -> None:
        self.close(span, {"out_bytes": out_bytes})
        self._root = None
        self.op = None


def _wrap(rec: Recorder, fn, name: str, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        span = rec.open(name)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                counts = count(args, result)
            return result
        finally:
            rec.close(span, counts)

    return traced


def _rebind(old, new) -> None:
    """Point every dyadic_spaces module attribute bound to ``old`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "dyadic_spaces" and not modname.startswith("dyadic_spaces."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    """Wrap every traced layer of the imported library.  Not reversible.

    Import ``dyadic_spaces.cli`` first: only modules already imported get
    their bindings replaced."""
    functions = [
        (seqspace.load_jsonl, "seqspace.load_jsonl", lambda a, r: {"records": len(r)}),
        (seqspace.save_jsonl, "seqspace.save_jsonl", None),
        (equivalence.random_sample_set, "equivalence.samples", lambda a, r: {"count": len(r)}),
        (witness.build_tower, "witness.build_tower", lambda a, r: {"levels": r.depth + 1}),
        (witness.certify_separation, "witness.certify", None),
        (classify.classify, "classify", None),
        (classify.classify_cmo, "classify", None),
        (classify.refute_claim, "classify.refute", None),
        (analyze.build_filter_bank, "analyze.filter_bank", None),
        (analyze.lp_convolve, "analyze.lp_convolve", None),
        (analyze.coefficients, "analyze.coefficients", None),
        (analyze.function_norm, "analyze.function_norm", None),
        (analyze.transform_consistency, "analyze.consistency", None),
    ]
    functions += [
        (getattr(equivalence, fn), "equivalence.check", None)
        for fn in ("check_collapse_f", "check_collapse_b", "check_holder_embeddings",
                   "check_exact_identities", "check_collapse_inhomogeneous")
    ]
    functions += [
        (getattr(seqspace, fn), f"seqspace.kernel.{fam}", None) for fn, fam in KERNELS.items()
    ]
    for fn, name, count in functions:
        _rebind(fn, _wrap(rec, fn, name, count))

    def build_count(args, seq):
        return {"nodes": len(seq.tree.nodes)}

    methods = [
        (seqspace.CubeSequence, "from_values", BUILD, build_count),
        (seqspace.CubeSequence, "from_log2_values", BUILD, build_count),
        (dyadic.SupportTree, "build", "dyadic.support_tree", None),
        (analyze.GridFunction, "harmonic", "analyze.signal", None),
        (analyze.GridFunction, "random_bandlimited", "analyze.signal", None),
        (analyze.GridFunction, "sawtooth_smoothed", "analyze.signal", None),
    ]
    for cls, attr, name, count in methods:
        fn = vars(cls)[attr].__func__
        setattr(cls, attr, classmethod(_wrap(rec, fn, name, count)))

    compile_geometry = seqspace.CubeSequence.geometry.fget

    def geometry(self):
        if self._geometry is not None or not rec.enabled:
            return compile_geometry(self)
        span = rec.open(GEOMETRY)
        geo = None
        try:
            geo = compile_geometry(self)
            return geo
        finally:
            counts = None
            if geo is not None:
                counts = {"nodes": geo.m, "levels": geo.max_level - geo.min_level + 1}
            rec.close(span, counts)

    seqspace.CubeSequence.geometry = property(geometry)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: each instant goes in equal shares to the
    innermost spans open at that instant."""
    events = []
    for span in spans:
        events.append((span[START], 1, span))
        events.append((span[END], 0, span))
    events.sort(key=lambda e: (e[0], e[1]))
    totals: dict[str, float] = defaultdict(float)
    leaves: dict[int, list] = {}
    open_children: dict[int, int] = {}
    last = None
    for t, opening, span in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves.values():
                totals[leaf[NAME]] += share
        last = t
        parent = span[PARENT]
        pid = id(parent)
        if opening:
            leaves[id(span)] = span
            open_children[id(span)] = 0
            if pid in open_children:
                if open_children[pid] == 0:
                    leaves.pop(pid, None)
                open_children[pid] += 1
        else:
            leaves.pop(id(span), None)
            open_children.pop(id(span), None)
            if pid in open_children:
                open_children[pid] -= 1
                if open_children[pid] == 0:
                    leaves[pid] = parent
    return dict(totals)


def _outermost(span: list) -> bool:
    """False for a call nested in a call of the same name (recursion, or
    from_values delegating to from_log2_values), which is not counted again."""
    parent = span[PARENT]
    return parent is None or parent[NAME] != span[NAME]


def calls(spans: list[list]) -> dict[str, int]:
    """Calls per span name."""
    out: dict[str, int] = defaultdict(int)
    for span in filter(_outermost, spans):
        out[span[NAME]] += 1
    return dict(out)


def count_sums(spans: list[list]) -> dict[str, float]:
    """Sums of the counts spans recorded, keyed ``<span name>.<count name>``."""
    out: dict[str, float] = defaultdict(float)
    for span in filter(_outermost, spans):
        for key, value in (span[COUNTS] or {}).items():
            out[f"{span[NAME]}.{key}"] += value
    return dict(out)


def peaks(spans: list[list]) -> dict[str, int]:
    """Largest self peak in bytes per span name (memory mode only)."""
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        out[span[NAME]] = max(out[span[NAME]], span[SELF_PEAK])
    return dict(out)
