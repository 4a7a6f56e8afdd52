"""Span tracing for the benchmark's traced run.

Each layer is wrapped at the module attribute its callers look up at call
time; several functions are bound into another module at import (for
example `training.adam_step` is `numerics.adam_step`), so the wrapper goes
on the name the caller uses, not on the defining module. Spans are kept in
memory and summarised per root span (one set-up or one operation of the
benchmark). Wrapping never edits the program's files, and every wrapped
name is put back when tracing ends.
"""

import functools
import importlib
import inspect
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                  # index of the enclosing span, -1 for a root
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)


# ---- counters: (bound arguments, result) -> {count name: number} per call

def _dropout_counts(args, result):
    return {"elements": math.prod(args["shape"])}


def _factor_counts(args, result):
    return {"slot_class_pairs": 2 * args["g"].num_edges * args["scores"].shape[1] ** 2}


def _e_step_counts(args, result):
    _, sweeps_run, tv = result
    capped = sweeps_run == args["sweeps"] and tv >= args["tolerance"]
    return {"sweeps": sweeps_run,
            "node_updates": sweeps_run * len(args["q"].node_ids),
            "capped_ratio": 1.0 if capped else 0.0}


@dataclass(frozen=True)
class Layer:
    name: str
    sites: tuple                 # (module, attribute) pairs the callers look up
    count: object = None         # optional counter, see above


LAYERS = (
    Layer("numerics.dropout_mask", (("mrfgcn.gcn", "dropout_mask"),), _dropout_counts),
    Layer("gcn.forward", (("mrfgcn.gcn", "forward"),)),
    Layer("gcn.backward", (("mrfgcn.gcn", "backward"),)),
    Layer("factors.objective_and_gradients",
          (("mrfgcn.training", "objective_and_gradients"),), _factor_counts),
    # train() calls _e_step_stats directly; e_step() and predict() reach it too
    Layer("training.e_step", (("mrfgcn.training", "_e_step_stats"),), _e_step_counts),
    Layer("training.m_step", (("mrfgcn.training", "m_step"),)),
    Layer("training.predict", (("mrfgcn.training", "predict"),)),
    Layer("training.train", (("mrfgcn.training", "train"),)),
    Layer("numerics.adam_step", (("mrfgcn.training", "adam_step"),)),
    Layer("data.load_dataset", (("mrfgcn.data", "load_dataset"),)),
    Layer("data.row_normalize_features", (("mrfgcn.data", "row_normalize_features"),)),
    Layer("data.planetoid_split", (("mrfgcn.data", "planetoid_split"),)),
    Layer("graph.build_graph", (("mrfgcn.data", "build_graph"),)),
    Layer("graph.normalized_adjacency_operator",
          (("mrfgcn.graph", "normalized_adjacency_operator"),
           ("mrfgcn.training", "normalized_adjacency_operator"))),
    Layer("checkpoint.save_checkpoint", (("mrfgcn.checkpoint", "save_checkpoint"),)),
    Layer("checkpoint.load_checkpoint", (("mrfgcn.checkpoint", "load_checkpoint"),)),
)

# counters reported as a mean per call; every other counter is summed
_PER_CALL_COUNTS = {"slot_class_pairs", "capped_ratio"}

# (layer, statistic, unit); the metric name is "<layer>.<statistic>"
LAYER_METRICS = (
    ("numerics.dropout_mask", "s", "s"),
    ("numerics.dropout_mask", "calls", "count"),
    ("numerics.dropout_mask", "elements", "count"),
    ("gcn.forward", "self_s", "s"),
    ("gcn.forward", "calls", "count"),
    ("gcn.backward", "s", "s"),
    ("gcn.backward", "calls", "count"),
    ("factors.objective_and_gradients", "s", "s"),
    ("factors.objective_and_gradients", "calls", "count"),
    ("factors.objective_and_gradients", "slot_class_pairs", "count"),
    ("training.e_step", "s", "s"),
    ("training.e_step", "calls", "count"),
    ("training.e_step", "sweeps", "count"),
    ("training.e_step", "node_updates", "count"),
    ("training.e_step", "capped_ratio", "ratio"),
    ("training.m_step", "self_s", "s"),
    ("training.predict", "self_s", "s"),
    ("training.train", "self_s", "s"),
    ("numerics.adam_step", "s", "s"),
    ("numerics.adam_step", "calls", "count"),
    ("data.load_dataset", "s", "s"),
    ("data.row_normalize_features", "s", "s"),
    ("data.planetoid_split", "s", "s"),
    ("graph.build_graph", "s", "s"),
    ("graph.normalized_adjacency_operator", "s", "s"),
    ("checkpoint.save_checkpoint", "s", "s"),
    ("checkpoint.load_checkpoint", "s", "s"),
)


def _wrap(tracer, layer, fn):
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        signature = None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(layer.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if layer.count is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[index].counts = layer.count(bound.arguments, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                # the layer's signature or result changed: its time still counts
                tracer.spans[index].counts = None
        return result

    return traced


@contextmanager
def installed(tracer, layers=LAYERS):
    """Wrap every layer site that exists; yields the names of layers with none.

    The original attributes are restored on exit, also after an error.
    """
    saved, unmeasured = [], set()
    try:
        for layer in layers:
            found = False
            for module_name, attr in layer.sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, _wrap(tracer, layer, fn))
                found = True
            if not found:
                unmeasured.add(layer.name)
        yield unmeasured
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered, run_start, run_end = 0.0, None, None
        for start, end in sorted(kids):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.end - span.start - covered)
    return out


def per_root(spans):
    """Per root span, in order: {layer name: stats} with total and self
    seconds, calls, and summed counts (None once a counter has failed)."""
    selfs = self_times(spans)
    root_of, by_root = [], {}
    for i, span in enumerate(spans):
        if span.parent < 0:
            root_of.append(i)
            by_root[i] = {}
            continue
        root_of.append(root_of[span.parent])
        stats = by_root[root_of[i]].setdefault(
            span.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})
        stats["s"] += span.end - span.start
        stats["self_s"] += selfs[i]
        stats["calls"] += 1
        if span.counts is None or stats["counts"] is None:
            stats["counts"] = None
        else:
            for key, value in span.counts.items():
                stats["counts"][key] = stats["counts"].get(key, 0) + value
    return list(by_root.values())


def layer_metrics(spans, unmeasured=()):
    """Per-layer metrics: times are medians over the roots that ran the layer;
    counts come from the first such root, so they repeat for a given seed.

    Returns {metric name: (value, measured)}.
    """
    roots = per_root(spans)
    out = {}
    for layer, stat, _ in LAYER_METRICS:
        name = f"{layer}.{stat}"
        hits = [stats[layer] for stats in roots if layer in stats]
        if layer in unmeasured:
            out[name] = (0, False)
        elif not hits:
            out[name] = (0, True)
        elif stat in ("s", "self_s"):
            out[name] = (statistics.median(h[stat] for h in hits), True)
        elif stat == "calls":
            out[name] = (hits[0]["calls"], True)
        elif hits[0]["counts"] is None or stat not in hits[0]["counts"]:
            out[name] = (0, False)
        else:
            value = hits[0]["counts"][stat]
            out[name] = (value / hits[0]["calls"] if stat in _PER_CALL_COUNTS else value, True)
    return out


def coverage(spans):
    """Share of root-span time spent inside the roots' direct children."""
    total = sum(s.end - s.start for s in spans if s.parent < 0)
    inside = sum(s.end - s.start for s in spans
                 if s.parent >= 0 and spans[s.parent].parent < 0)
    return inside / total if total > 0 else 0.0
