"""Span recorder for the traced benchmark run.

The recorder replaces public entry points of the ``rsgdlab`` modules with
timing wrappers, by module attribute, for the duration of a ``with
Recorder.installed():`` block, and puts the originals back afterwards.  A
function imported by name into another module (``surface.evaluate`` is
``experiment.evaluate``) is wrapped at each attribute separately, so each call
path gets its own span name.

Each span knows its parent, so a layer's self time is its duration minus the
time covered by its direct child spans.  Alongside the spans the wrappers add
up work counts computed from argument shapes (GEMM flops and bytes,
activation elements, coins, optimizer elements, examples evaluated, scan
points); these repeat exactly for the same inputs.

A listed entry point that no longer exists raises ``TraceError`` when the
wrappers are installed, so a renamed function fails the traced run instead of
reporting zero.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

# module -> attributes wrapped; "Class.method" wraps a method on the class.
ENTRY_POINTS = {
    "core": ["RngStream.bernoulli_matrix"],
    "network": ["forward", "backward", "sigmoid", "relu", "softmax",
                "load_checkpoint", "save_checkpoint"],
    "optim": ["VanillaSgd.step", "Rsgd.step", "Sgdm.step", "Nag.step", "Adam.step",
              "memory_length_pmf", "simulate_memory_length"],
    "data": ["generate_teacher_dataset", "load_dataset", "save_dataset",
             "BatchPlan.epoch_batches", "sigmoid"],
    "experiment": ["train", "evaluate"],
    "surface": ["scan_surface", "bilinear_interpolate", "write_surface_csv", "evaluate"],
    "cli": ["main", "train", "evaluate"],
}

# Span names that call the same function through another module's attribute.
ALIASES = {
    "data.sigmoid": "network.sigmoid",
    "surface.evaluate": "experiment.evaluate",
    "cli.evaluate": "experiment.evaluate",
    "cli.train": "experiment.train",
}

OPTIMIZER_CLASSES = {"VanillaSgd": "backprop", "Rsgd": "rsgd", "Sgdm": "sgdm",
                     "Nag": "nag", "Adam": "adam"}


class TraceError(RuntimeError):
    """An entry point the recorder must wrap is missing."""


def function_of(span_name: str) -> str:
    """The home name of the function a span measured."""
    return ALIASES.get(span_name, span_name)


# --- computed work counts ------------------------------------------------

def _batch(x) -> int:
    return 1 if x.ndim == 1 else x.shape[1]


def _forward_counts(params, arch, x, *_, **__):
    b = _batch(np.asarray(x))
    flops = sum(2 * w.shape[0] * w.shape[1] * b for w in params)
    nbytes = sum(8 * (w.shape[0] * w.shape[1] + w.shape[1] * b + w.shape[0] * b)
                 for w in params)
    return {"gemm.flop": flops, "gemm.byte": nbytes}


def _backward_counts(params, arch, trace, *_, **__):
    b = _batch(trace.output)
    flops = nbytes = 0
    for k, w in enumerate(params):
        rows, cols = w.shape
        flops += 2 * rows * cols * b                        # kappa @ s_prev.T
        nbytes += 8 * (rows * b + cols * b + rows * cols)
        if k > 0:
            inner = arch.widths[k]                           # bias column does not backpropagate
            flops += 2 * rows * inner * b                    # W.T @ kappa
            nbytes += 8 * (rows * inner + rows * b + inner * b)
    return {"gemm.flop": flops, "gemm.byte": nbytes}


def _activation_counts(x, *_, **__):
    return {"activation.elem": int(np.size(x))}


def _coin_counts(self, p, shape, *_, **__):
    return {"coins": int(np.prod(shape))}


def _step_counts(cls_name):
    def counts(self, tensors, *_, **__):
        elems = sum(int(t.size) for t in tensors)
        out = {"step.elem": elems, f"step.calls.{OPTIMIZER_CLASSES[cls_name]}": 1}
        if cls_name == "Rsgd":
            out["rsgd.param_steps"] = elems
        return out
    return counts


def _evaluate_counts(params, arch, dataset, *_, **__):
    return {"evaluate.examples": len(dataset)}


def _scan_counts(corners, resolution, *_, **__):
    return {"scan.points": int(resolution) ** 2}


COUNTERS = {
    "network.forward": _forward_counts,
    "network.backward": _backward_counts,
    "network.sigmoid": _activation_counts,
    "network.relu": _activation_counts,
    "network.softmax": _activation_counts,
    "core.RngStream.bernoulli_matrix": _coin_counts,
    "experiment.evaluate": _evaluate_counts,
    "surface.scan_surface": _scan_counts,
}
for _cls in OPTIMIZER_CLASSES:
    COUNTERS[f"optim.{_cls}.step"] = _step_counts(_cls)


# --- recorder ------------------------------------------------------------

class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "child_s")

    def __init__(self, name, parent, op, start):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = None
        self.child_s = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Recorder:
    """Keeps spans and counts in memory; ``mark``/``since`` give per-round totals."""

    def __init__(self, modules):
        self.modules = modules            # short name -> imported module
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.alloc_peak_bytes = 0
        self.op = None                    # benchmark operation the spans belong to
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, parent, self.op, time.perf_counter())
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.duration_s
            self.spans.append(s)

    def _wrap(self, name, fn):
        home = function_of(name)
        counter = COUNTERS.get(home)
        rec = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)

                def timed():
                    while True:
                        with rec.span(name):
                            try:
                                item = next(gen)
                            except StopIteration:
                                return
                        yield item
                return timed()
        elif home == "optim.simulate_memory_length":
            def wrapper(*args, **kwargs):
                with rec.span(name):
                    tracemalloc.start()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        rec.alloc_peak_bytes = max(rec.alloc_peak_bytes, peak)
        else:
            def wrapper(*args, **kwargs):
                if counter is not None:
                    rec.counts.update(counter(*args, **kwargs))
                with rec.span(name):
                    return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _targets(self):
        """(owner object, attribute, span name, function) for every entry point."""
        found = []
        for mod_name, attrs in ENTRY_POINTS.items():
            module = self.modules[mod_name]
            for attr in attrs:
                owner, _, leaf = attr.rpartition(".")
                target = getattr(module, owner, None) if owner else module
                fn = vars(target).get(leaf) if target is not None else None
                if not callable(fn):
                    raise TraceError(f"entry point {mod_name}.{attr} is missing; "
                                     "the traced run cannot measure it")
                found.append((target, leaf, f"{mod_name}.{attr}", fn))
        return found

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        originals = []
        try:
            for owner, leaf, name, fn in self._targets():
                originals.append((owner, leaf, fn))
                setattr(owner, leaf, self._wrap(name, fn))
            yield self
        finally:
            for owner, leaf, fn in reversed(originals):
                setattr(owner, leaf, fn)

    # --- aggregation -----------------------------------------------------

    def mark(self):
        """A position in the span and count record, for ``since``."""
        self.alloc_peak_bytes = 0
        return len(self.spans), Counter(self.counts)

    def since(self, mark):
        """Span names seen, per-function totals and self times, counts and the
        largest tracemalloc peak, all since ``mark``."""
        n_spans, counts_before = mark
        total = defaultdict(float)
        self_s = defaultdict(float)
        step_self = defaultdict(float)
        for s in self.spans[n_spans:]:
            home = function_of(s.name)
            total[home] += s.duration_s
            self_s[home] += s.self_s
            if home.endswith(".step") and home.startswith("optim."):
                step_self[OPTIMIZER_CLASSES[home.split(".")[1]]] += s.self_s
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return {"names": {s.name for s in self.spans[n_spans:]},
                "total_s": dict(total), "self_s": dict(self_s),
                "step_self_s": dict(step_self),
                "counts": {k: v for k, v in counts.items() if v},
                "alloc_peak_bytes": self.alloc_peak_bytes}

    def dump(self, path):
        """Write every span, one JSON object per line."""
        ordered = sorted(self.spans, key=lambda s: s.start)
        index = {id(s): i for i, s in enumerate(ordered)}
        t0 = ordered[0].start if ordered else 0.0
        with open(path, "w") as f:
            for i, s in enumerate(ordered):
                f.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "start_s": round(s.start - t0, 9),
                    "duration_s": round(s.duration_s, 9),
                    "self_s": round(s.self_s, 9)}) + "\n")


def load_modules():
    return {name: importlib.import_module(f"rsgdlab.{name}") for name in ENTRY_POINTS}
