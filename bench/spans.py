"""In-memory span recorder for the traced benchmark run.

Spans are installed from outside the program: the public functions of each
cekit module, and the numpy LAPACK entry points cekit calls, are replaced by
wrappers for the duration of a traced pass and restored afterwards. cekit
modules import each other's functions by name, so every module-level binding
of an original is swapped, not only the defining one.

A span is (name, start, end, parent). Spans are stored in flat arrays in the
order they open, so a parent always precedes its children; self time is a
span's duration minus the durations of its direct children.

A callback that `parallel.parallel_map` runs belongs to the caller's layer,
not to the pool: it is recorded as a continuation span of the caller's name
(stored as -1 - name id), which adds self time to that name but no call.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: cekit modules that form the layers, by layer name.
LAYER_MODULES = (
    "cli",
    "states",
    "tensor",
    "measures",
    "entropy",
    "convex_roof",
    "swaptest",
    "suites",
    "parallel",
)

#: numpy.linalg entry points cekit calls; together they form the `linalg` layer.
LINALG_FUNCTIONS = ("eigvalsh", "eigh", "eigvals", "svd", "qr")

#: State factories; they and StateRecipe.build record as the span `states.build`.
STATE_FACTORIES = ("ghz", "w", "dicke", "star", "haar_random", "random_density", "random_product")

#: Classes whose methods open spans, with the span name each method records.
METHOD_SPANS = (
    ("states", "StateRecipe", "build", "states.build"),
    ("tensor", "PureState", "__post_init__", "tensor.PureState"),
    ("tensor", "DensityOperator", "__post_init__", "tensor.DensityOperator"),
)

#: Span name of one benchmark op; its self time is benchmark overhead.
OP_SPAN = "bench.op"
#: Span name of the recorder's own bookkeeping that is worth timing apart.
TRACE_SPAN = "bench.trace"


class PassCounts:
    """Counters gathered at span boundaries during one traced pass."""

    def __init__(self) -> None:
        self.eigvalsh_sum_d3 = 0
        self.eigvalsh_under_measures = 0
        self.eigvalsh_under_roof = 0
        self.distinct_measures_inputs: set[int] = set()


class Recorder:
    """Flat arrays of spans plus per-pass counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.depth = {"measures": 0, "roof": 0}
        self.counts = PassCounts()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(math.nan)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the durations of direct children."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def totals(self, lo: int, hi: int, own: np.ndarray) -> tuple[dict[str, int], dict[str, float]]:
        """(calls, self seconds) per span name over spans lo..hi-1, given the
        per-span self times `own`. Continuation spans add time but no call."""
        raw = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        names = np.where(raw < 0, -1 - raw, raw)
        calls = np.bincount(names[raw >= 0], minlength=len(self.names))
        secs = np.bincount(names, weights=own[lo:hi], minlength=len(self.names))
        return (
            {n: int(calls[k]) for k, n in enumerate(self.names)},
            {n: float(secs[k]) for k, n in enumerate(self.names)},
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _span(rec: Recorder, fn, name: str, watch: str | None):
    nid = rec.name_id(name)
    depth = rec.depth

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(nid)
        if watch:
            depth[watch] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            if watch:
                depth[watch] -= 1
            rec.close(i)

    return wrapper


def _eigvalsh_span(rec: Recorder, fn):
    """eigvalsh with counters: matrix work, calls under measures and roof spans,
    and the distinct inputs solved under measures spans.

    Hashing the input identifies a (state, cut) pair without relying on any
    cekit signature. It runs in its own span so no layer's self time pays it.
    """
    nid = rec.name_id("linalg.eigvalsh")
    hid = rec.name_id(TRACE_SPAN)
    depth = rec.depth

    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        counts = rec.counts
        shape = np.shape(a)
        counts.eigvalsh_sum_d3 += math.prod(shape[:-2]) * shape[-1] ** 3
        if depth["roof"]:
            counts.eigvalsh_under_roof += 1
        if depth["measures"]:
            counts.eigvalsh_under_measures += 1
            h = rec.open(hid)
            mats = np.asarray(a).reshape((-1,) + shape[-2:])
            counts.distinct_measures_inputs.update(hash(m.tobytes()) for m in mats)
            rec.close(h)
        i = rec.open(nid)
        try:
            return fn(a, *args, **kwargs)
        finally:
            rec.close(i)

    return wrapper


def _parallel_span(rec: Recorder, fn):
    """parallel_map whose callback runs as a continuation of the caller's span."""
    nid = rec.name_id("parallel.parallel_map")

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        caller = rec.stack[-1]
        owner = rec.name[caller] if caller >= 0 else rec.name_id(OP_SPAN)
        cont = owner if owner < 0 else -1 - owner

        def callback(x):
            i = rec.open(cont)
            try:
                return f(x)
            finally:
                rec.close(i)

        i = rec.open(nid)
        try:
            return fn(callback, *args, **kwargs)
        finally:
            rec.close(i)

    return wrapper


class Installed:
    """Context manager that swaps span wrappers into every cekit module
    binding and numpy.linalg on entry, and restores the originals on exit."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.swaps: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installed":
        rec = self.rec
        wrapped: dict[int, tuple] = {}
        for layer in LAYER_MODULES:
            try:
                mod = importlib.import_module(f"cekit.{layer}")
            except ImportError:
                continue  # a layer a later version removed reports zeros
            if layer == "cli":
                public = ["main"]  # the cmd_* bodies stay in cli.main's self time
            else:
                public = getattr(mod, "__all__", None) or [a for a in vars(mod) if not a.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    name = "states.build" if attr in STATE_FACTORIES else f"{layer}.{attr}"
                    watch = "measures" if layer == "measures" else None
                    if name == "convex_roof.cce_mixed_upper":
                        watch = "roof"
                    if name == "parallel.parallel_map":
                        wrapper = _parallel_span(rec, fn)
                    else:
                        wrapper = _span(rec, fn, name, watch)
                    wrapped[id(fn)] = (fn, wrapper)
        for layer, cls_name, meth, name in METHOD_SPANS:
            cls = getattr(sys.modules.get(f"cekit.{layer}"), cls_name, None)
            fn = cls.__dict__.get(meth) if cls is not None else None
            if isinstance(fn, types.FunctionType):
                self.swaps.append((cls, meth, fn))
                setattr(cls, meth, _span(rec, fn, name, None))
        linalg = np.linalg
        for attr in LINALG_FUNCTIONS:
            fn = getattr(linalg, attr)
            wrapper = _eigvalsh_span(rec, fn) if attr == "eigvalsh" else _span(rec, fn, f"linalg.{attr}", None)
            self.swaps.append((linalg, attr, fn))
            setattr(linalg, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cekit" or mod_name.startswith("cekit.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self.swaps.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.swaps):
            setattr(owner, attr, original)
        self.swaps.clear()
