"""Outside-in layer tracing for the benchmark's traced run.

Nothing in ``repro`` is edited: :func:`install` replaces the public
callables of each layer *at the binding site its caller resolves* (the
module attribute or class attribute the caller looks up at call time) with a
thin wrapper that opens and closes one span per call.  Generators get one
span per ``next()``, so a span never stays open across a ``yield`` and spans
nest strictly on each thread.

A span's *self time* is its duration minus the durations of the spans
directly under it, so the self times of one span tree add up to its root's
duration.  Spans are folded into their tree as they close: each root (one
``estimate`` call, or one served micro-batch) keeps, per layer, its calls,
self seconds and work counts ``n``/``k`` (worlds, bytes, queries per sweep,
...).  The roots are kept in memory and written out at the end.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from stats import quantile

#: Span names whose self time is recursion, dispatch and reduction: the
#: part of an estimate no named layer accounts for (``core.overhead_s``).
OVERHEAD_SPANS = ("estimate", "core.job", "core.leaf")


class Root:
    """One finished span tree: its root span and per-layer sums."""

    __slots__ = ("id", "name", "tag", "t0", "t1", "layers")

    def __init__(self, span_id, name, tag, t0, t1, layers) -> None:
        self.id = span_id
        self.name = name
        self.tag = tag
        self.t0 = t0
        self.t1 = t1
        #: name -> [calls, self_s, n, k]
        self.layers: Dict[str, list] = layers


class Recorder:
    """Thread-aware span recorder with exact self-time bookkeeping."""

    def __init__(self) -> None:
        self.on = False
        self.roots: List[Root] = []
        self.submit_stamps: Dict[int, float] = {}
        self.batches: List[Tuple[float, int, List[float]]] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str) -> list:
        """Push a span frame: ``[name, t0, child_seconds, tree_sums]``."""
        stack = self._stack()
        tree = stack[0][3] if stack else {}
        frame = [name, time.perf_counter(), 0.0, tree]
        stack.append(frame)
        return frame

    def close(self, frame: list, n: int = 0, k: int = 0, tag: Any = None) -> None:
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, t0, children, tree = frame
        duration = t1 - t0
        row = tree.get(name)
        if row is None:
            row = tree[name] = [0, 0.0, 0, 0]
        row[0] += 1
        row[1] += duration - children
        row[2] += int(n)
        row[3] += int(k)
        if stack:
            stack[-1][2] += duration
        else:
            self.roots.append(Root(next(self._ids), name, tag, t0, t1, tree))

    def write(self, path, meta: Dict[str, Any]) -> None:
        """Write the run metadata line, then one JSON line per root."""
        with open(path, "w") as out:
            out.write(json.dumps(meta) + "\n")
            for root in self.roots:
                out.write(json.dumps({
                    "root": root.id, "name": root.name, "tag": root.tag,
                    "t0": root.t0, "wall_s": root.t1 - root.t0,
                    "layers": {
                        name: dict(zip(("calls", "self_s", "n", "k"), row))
                        for name, row in root.layers.items()
                    },
                }) + "\n")


# --------------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------------- #


def _wrap_call(rec: Recorder, fn: Callable, name: str, count) -> Callable:
    def traced(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        frame = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(frame)
            raise
        n, k, tag = count(args, kwargs, out) if count else (0, 0, None)
        rec.close(frame, n, k, tag)
        return out

    traced.__wrapped__ = fn
    return traced


def _wrap_gen(rec: Recorder, fn: Callable, name: str) -> Callable:
    """One span per ``next()`` (and one for ``close()``); ``n`` = block rows."""

    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        if not rec.on:
            return inner

        def stream():
            exhausted = False
            try:
                while True:
                    frame = rec.open(name)
                    try:
                        block = next(inner)
                    except StopIteration:
                        exhausted = True
                        rec.close(frame)
                        return
                    except BaseException:
                        rec.close(frame)
                        raise
                    rec.close(frame, block.shape[0])
                    yield block
            finally:
                if not exhausted:
                    # An early close must reach the wrapped generator: the
                    # world-block cache stores the sampled prefix on close.
                    frame = rec.open(name)
                    try:
                        inner.close()
                    finally:
                        rec.close(frame)

        return stream()

    traced.__wrapped__ = fn
    return traced


def _rows(args, kwargs, out):
    return out.shape[0], 0, None


def _nbytes(args, kwargs, out):
    return out.nbytes, 0, None


def _solo_sweep(args, kwargs, out):
    return args[1].shape[0], 1, None


def _grouped_sweep(args, kwargs, out):
    return args[1].shape[0], len(args[2]), None


def _leaf_worlds(args, kwargs, out):
    return args[3], 0, None


def _estimate_tag(args, kwargs, out):
    return 0, 0, args[0].name


def _adaptive_counts(args, kwargs, out):
    return out.extras["worlds_to_target"], out.extras["rounds"], None


def _batch_size(args, kwargs, out):
    return len(args[1]), 0, None


#: (module, attribute path, span name, kind, counter).  Each entry is a
#: binding site some caller resolves at call time; ``kind`` is ``call`` or
#: ``gen`` (one span per yielded block).
BINDINGS = [
    # graph.world: fresh Bernoulli sampling
    ("repro.graph.worldsource", "iter_mask_blocks", "world.sample", "gen", None),
    ("repro.graph.worldsource", "sample_edge_masks", "world.sample", "call", _rows),
    ("repro.serving.cache", "iter_mask_blocks", "world.sample", "gen", None),
    # graph.worldsource + serving.cache: replay of cached world blocks
    ("repro.serving.cache", "WorldBlockCache.blocks", "cache.lookup", "gen", None),
    # graph.bitsets: packing (row layout in the cache, world-words layout
    # in the traversal kernels)
    ("repro.serving.cache", "pack_masks", "bitsets.pack", "call", _nbytes),
    ("repro.queries.batch", "pack_masks", "bitsets.pack", "call", _nbytes),
    # queries.batch: traversal kernels, solo and grouped
    ("repro.queries.influence", "reachable_counts_batch", "traversal", "call",
     _solo_sweep),
    ("repro.queries.distance", "st_distances_batch", "traversal", "call",
     _solo_sweep),
    ("repro.serving.engine", "grouped_reachable_counts_batch", "traversal",
     "call", _grouped_sweep),
    ("repro.serving.engine", "grouped_st_distances_batch", "traversal", "call",
     _grouped_sweep),
    # core: selection (RSS edge picks, RCSS cut sets), stratification,
    # allocation, conditioning, leaves, and the recursion itself
    ("repro.core.selection", "RandomSelection.select", "core.select", "call", None),
    ("repro.core.selection", "BFSSelection.select", "core.select", "call", None),
    ("repro.core.selection", "DegreeSelection.select", "core.select", "call", None),
    ("repro.core.selection", "EntropySelection.select", "core.select", "call", None),
    ("repro.queries.influence", "frontier_cut_set", "core.select", "call", None),
    ("repro.core.rss1", "class1_strata", "core.stratify", "call", None),
    ("repro.core.rcss", "cutset_strata", "core.stratify", "call", None),
    ("repro.core.rcss", "cutset_stratum_statuses", "core.stratify", "call", None),
    ("repro.core.rss1", "estimator_allocation", "core.allocate", "call", None),
    ("repro.core.rss1", "plan_allocation", "core.allocate", "call", None),
    ("repro.core.rcss", "estimator_allocation", "core.allocate", "call", None),
    ("repro.core.rcss", "plan_allocation", "core.allocate", "call", None),
    ("repro.graph.statuses", "EdgeStatuses.child", "core.condition", "call", None),
    ("repro.queries.influence", "determined_reachable", "core.condition", "call",
     None),
    ("repro.core.nmc", "sample_mean_pair", "core.leaf", "call", _leaf_worlds),
    ("repro.core.rss1", "sample_mean_pair", "core.leaf", "call", _leaf_worlds),
    ("repro.core.rcss", "sample_mean_pair", "core.leaf", "call", _leaf_worlds),
    ("repro.parallel.worker", "sample_mean_pair", "core.leaf", "call",
     _leaf_worlds),
    ("repro.parallel.driver", "evaluate_job", "core.job", "call", None),
    ("repro.core.base", "Estimator.estimate", "estimate", "call", _estimate_tag),
    # adaptive: sequential stopping; parallel.driver: inline plan/reduce
    ("repro.adaptive.engine", "estimate_adaptive", "adaptive", "call",
     _adaptive_counts),
    ("repro.parallel.driver", "estimate_parallel", "driver", "call", None),
    # serving.engine
    ("repro.serving.engine", "ServingEngine._serve_batch", "engine.serve",
     "call", _batch_size),
]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *parents, name = attr.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def _install_batcher(rec: Recorder) -> None:
    """Admission stamps and batch formation at the micro-batcher."""
    from repro.serving.batcher import MicroBatcher

    submit, next_batch = MicroBatcher.submit, MicroBatcher.next_batch

    def traced_submit(self, item):
        if rec.on:
            rec.submit_stamps[id(item)] = time.perf_counter()
        return submit(self, item)

    def traced_next_batch(self):
        batch = next_batch(self)
        if rec.on and batch:
            now = time.perf_counter()
            waits = [
                now - rec.submit_stamps.pop(id(item), now) for item in batch
            ]
            rec.batches.append((now, len(batch), waits))
        return batch

    MicroBatcher.submit = traced_submit
    MicroBatcher.next_batch = traced_next_batch


def install(rec: Recorder) -> None:
    """Wrap every binding site for the rest of the process."""
    for module, attr, name, kind, count in BINDINGS:
        owner, leaf = _resolve(module, attr)
        original = getattr(owner, leaf)
        if kind == "gen":
            wrapped = _wrap_gen(rec, original, name)
        else:
            wrapped = _wrap_call(rec, original, name, count)
        setattr(owner, leaf, wrapped)
    _install_batcher(rec)


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #


def layer_totals(roots: Sequence[Root]) -> Dict[str, Dict[str, float]]:
    """Per layer, over every root: calls, self seconds, summed n and k."""
    out: Dict[str, Dict[str, float]] = {}
    for root in roots:
        for name, (calls, self_s, n, k) in root.layers.items():
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "n": 0, "k": 0})
            row["calls"] += calls
            row["self_s"] += self_s
            row["n"] += n
            row["k"] += k
    return out


def check_accounting(roots: Sequence[Root]) -> float:
    """Largest gap between a root's duration and its tree's summed self time.

    Self times partition each root's interval exactly when spans nest; a
    wrapper left open across a ``yield`` (or closed on the wrong thread)
    breaks that, and the gap shows it.
    """
    gap = 0.0
    for root in roots:
        accounted = sum(row[1] for row in root.layers.values())
        gap = max(gap, abs((root.t1 - root.t0) - accounted))
    return gap


def per_layer_metrics(
    rec: Recorder, rate_windows: Sequence[Tuple[float, float]] = ()
) -> Dict[str, float]:
    """The per-layer metric values of one traced run.

    Batcher and engine figures cover the open-loop rate phases
    (``rate_windows``), where the engine is not saturated by construction;
    cache and generator figures are added by the workload, which owns those
    objects.
    """
    totals = layer_totals(rec.roots)

    def row(name: str) -> Dict[str, float]:
        return totals.get(name, {"calls": 0, "self_s": 0.0, "n": 0, "k": 0})

    sweep, leaf, adaptive = row("traversal"), row("core.leaf"), row("adaptive")
    metrics = {
        "world.sample_s": row("world.sample")["self_s"],
        "world.worlds_sampled": row("world.sample")["n"],
        "cache.lookup_s": row("cache.lookup")["self_s"],
        "bitsets.pack_s": row("bitsets.pack")["self_s"],
        "bitsets.bytes_packed": row("bitsets.pack")["n"],
        "traversal.s": sweep["self_s"],
        "traversal.calls": sweep["calls"],
        "traversal.worlds_per_call": sweep["n"] / sweep["calls"] if sweep["calls"] else 0.0,
        "traversal.queries_per_sweep": sweep["k"] / sweep["calls"] if sweep["calls"] else 0.0,
        "core.select_s": row("core.select")["self_s"],
        "core.stratify_s": row("core.stratify")["self_s"],
        "core.allocate_s": row("core.allocate")["self_s"],
        "core.condition_s": row("core.condition")["self_s"],
        "core.leaf_calls": leaf["calls"],
        "core.worlds_per_leaf": leaf["n"] / leaf["calls"] if leaf["calls"] else 0.0,
        "core.overhead_s": sum(row(name)["self_s"] for name in OVERHEAD_SPANS),
        "adaptive.s": adaptive["self_s"],
        "adaptive.rounds": adaptive["k"],
        "adaptive.worlds_to_target": adaptive["n"],
        "driver.s": row("driver")["self_s"],
        "engine.self_s": row("engine.serve")["self_s"],
    }

    def in_rate_phase(t: float) -> bool:
        return any(start <= t < end for start, end in rate_windows)

    serves = [
        root.t1 - root.t0 for root in rec.roots
        if root.name == "engine.serve" and in_rate_phase(root.t0)
    ]
    batches = [batch for batch in rec.batches if in_rate_phase(batch[0])]
    waits = [w for batch in batches for w in batch[2]]
    wall = sum(end - start for start, end in rate_windows)
    metrics.update({
        "batcher.wait_ms_p50": quantile(waits, 0.5) * 1e3,
        "batcher.batch_size_mean": (
            sum(batch[1] for batch in batches) / len(batches) if batches else 0.0
        ),
        "engine.busy_frac": (
            sum(serves) / wall if wall > 0 else 0.0
        ),
        "engine.serve_ms_p50": quantile(serves, 0.5) * 1e3,
    })
    return metrics


def calls_by_layer(rec: Recorder) -> Dict[str, int]:
    """Recorded calls per span name, plus micro-batches as ``batcher``."""
    calls = {name: int(row["calls"]) for name, row in layer_totals(rec.roots).items()}
    calls["batcher"] = len(rec.batches)
    return calls
