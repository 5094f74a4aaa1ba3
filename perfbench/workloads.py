"""The benchmark's workloads, run one per process by ``perfbench/run.py``.

Both run on the facebook-like surrogate at scale 0.2 (380 nodes, 4,059
edges), the graph of the committed serving and adaptive records.  Every
workload derives its inputs from the workload seed alone, sizes its work
from ``--seconds`` with fixed per-workload constants (so one seed always
means one exact list of calls or requests), and checks every output.

``estimate-to-target``
    Closed loop, one caller: ``estimate(g, q, CEILING, rng=seed_i,
    target_ci=TARGET_CI)`` round-robin over NMC, RSS-I and RCSS (paper
    defaults) on influence queries at the fixed list of high-degree anchors
    in ``reference.json``; only the per-call RNG seeds come from the
    workload seed.  Never touches serving or the cache.
``serve-hot``
    The ``ServingEngine`` fast path: the four mixed query shapes of
    ``repro.serving.bench.build_workload`` at W=600 over 16 seeds, all
    warmed during set-up.  An open-loop rate phase, then a closed-loop
    saturation phase, twice.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import loadgen
from stats import quantile

HERE = Path(__file__).resolve().parent

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 3

GRAPH_SCALE = 0.2


def _graph():
    from repro.datasets.surrogates import facebook_like

    return facebook_like(scale=GRAPH_SCALE)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(build: Callable[[], Any], teardown: Callable[[Any], None]):
    """Run ``build`` SETUP_REPEATS times; keep the last, report the median."""
    seconds = []
    state = None
    for i in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        gc.collect()
        t0 = time.perf_counter()
        state = build()
        seconds.append(time.perf_counter() - t0)
    return state, statistics.median(seconds)


# --------------------------------------------------------------------------- #
# estimate-to-target
# --------------------------------------------------------------------------- #

TARGET_CI = 1.0
CEILING = 1 << 20
#: Calibrated mean wall seconds of one call; sizes the call list from
#: ``--seconds``.
CALL_S = 0.5
#: >= 10 calls beyond the reported p75.
MIN_CALLS = 40
PASSES = 2
#: Accuracy check: |value - reference| <= K * (half_width + reference_hw).
HALF_WIDTHS = 4.0
#: Worlds per warm-up estimate in set-up (every family at every anchor).
SETUP_WORLDS = 256


def _families():
    from repro.core.nmc import NMC
    from repro.core.rcss import RCSS
    from repro.core.rss1 import RSS1

    return [("nmc", NMC), ("rss1", RSS1), ("rcss", RCSS)]


def estimate_to_target(seed: int, seconds: float, rec) -> Dict[str, Any]:
    from repro.queries.influence import InfluenceQuery
    from repro.serving.bench import results_identical

    reference = json.loads((HERE / "reference.json").read_text())
    anchors = reference["anchors"]
    families = _families()
    n_calls = max(MIN_CALLS, math.ceil(seconds / (PASSES * CALL_S)))
    call_seeds = np.random.default_rng(seed).integers(0, 2**31, size=n_calls)

    def build():
        graph = _graph()
        queries = [InfluenceQuery(a["node"]) for a in anchors]
        # Warm every family at every anchor (real work of a few seconds,
        # fixed size, so set-up time is not interpreter jitter).
        for query in queries:
            for _, make in families:
                make().estimate(graph, query, SETUP_WORLDS, rng=seed, n_workers=1)
        return graph, queries

    (graph, queries), setup_s = _timed_setup(build, lambda state: None)

    # The call list runs PASSES times; each call keeps its fastest time
    # (min-of-k: a slow spell on the shared host only ever adds time) and
    # every repeat must return the identical estimate.
    # Call c runs family c % 3 at anchor (c // 3) % len(anchors).
    plan = [
        ((c // len(families)) % len(anchors), c % len(families), int(call_seeds[c]))
        for c in range(n_calls)
    ]
    seconds_by_call = [math.inf] * len(plan)
    results: List[Any] = [None] * len(plan)
    failed = 0
    worlds = rounds = 0
    gc.collect()
    if rec is not None:
        rec.on = True
    started = time.perf_counter()
    for _ in range(PASSES):
        for c, (slot, f, call_seed) in enumerate(plan):
            estimator = families[f][1]()
            t0 = time.perf_counter()
            try:
                result = estimator.estimate(
                    graph, queries[slot], CEILING, rng=call_seed, target_ci=TARGET_CI,
                )
            except Exception:  # a call that raises is a failed operation
                failed += 1
                continue
            seconds_by_call[c] = min(seconds_by_call[c], time.perf_counter() - t0)
            worlds += int(result.extras["worlds_to_target"])
            rounds += int(result.extras["rounds"])
            if results[c] is None:
                results[c] = result
            elif not results_identical(result, results[c]):
                failed += 1
    wall = time.perf_counter() - started
    if rec is not None:
        rec.on = False
    peak = _peak_rss_mb()

    for (slot, f, _), result in zip(plan, results):
        if result is None:
            continue  # counted when it raised
        extras = result.extras
        ref = anchors[slot]
        ok = (
            extras.get("converged") is True
            and extras["half_width"] <= TARGET_CI
            and abs(result.value - ref["value"])
            <= HALF_WIDTHS * (extras["half_width"] + ref["half_width"])
        )
        failed += not ok

    timed = [(f, t) for (_, f, _), t in zip(plan, seconds_by_call) if t < math.inf]
    latencies = [t * 1e3 for _, t in timed]
    by_family = {
        f"{name}_s_to_target_p50": quantile([t for g, t in timed if g == f], 0.5)
        for f, (name, _) in enumerate(families)
    }
    return {
        "attempted": len(plan) * PASSES,
        "failed": failed,
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": peak,
            "throughput_qps": len(timed) / sum(t for _, t in timed),
            "latency_p50_ms": quantile(latencies, 0.5),
            "latency_tail_ms": quantile(latencies, 0.75),
        },
        "extra": by_family,
        # Over every call of every pass, like the traced run's layer counts.
        "counts": {"adaptive.worlds_to_target": worlds, "adaptive.rounds": rounds},
        "wall_s": wall,
        "rate_windows": [],
    }


# --------------------------------------------------------------------------- #
# serving workloads
# --------------------------------------------------------------------------- #


#: Fast path: 16 warm seeds, W=600.  The rate phase offers 120 q/s, sized
#: from the engine's busy fraction at that rate, not from saturation
#: throughput (which shares each sweep among up to 64 requests): traced runs
#: measure engine.busy_frac 0.28-0.41 (tracing included) with batches of 1
#: request and a 2-3 ms serve, so requests rarely queue behind each other.  1000 requests per
#: round leave 10 beyond the p99.
HOT_WORLDS = 600
HOT_QUERIES = 64
HOT_SEEDS = 16
RATE_QPS = 120.0
RATE_REQUESTS = 1000
#: Calibrated saturation throughput; sizes the closed-loop phase so it takes
#: about SAT_SHARE of each round's share of ``--seconds``.
SAT_QPS = 1100.0
SAT_SHARE = 0.3
IN_FLIGHT = 64
#: The rate and saturation phases run this many times; every metric reports
#: the best round (min-of-k: a slow spell on the shared host only ever adds
#: time).
ROUNDS = 3
#: Seed of the fixed request pattern (not of the inputs' values).
PATTERN_SEED = 20140331


def request_stream(seed: int, n_total: int):
    """Rows ``(query, seed index)`` and the sampling seeds.

    The request pattern (which query and which seed *rank* comes when) is
    fixed; the workload seed draws the sampling seeds themselves.  Runs then
    differ by their inputs' values, not by the luck of the mix.
    """
    pattern = np.random.default_rng(PATTERN_SEED)
    stream = np.column_stack([
        pattern.integers(0, HOT_QUERIES, size=n_total),
        pattern.integers(0, HOT_SEEDS, size=n_total),
    ])
    seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=HOT_SEEDS)]
    return stream, seeds


def serve_hot(seed: int, seconds: float, rec) -> Dict[str, Any]:
    from repro.core.nmc import NMC
    from repro.serving.bench import build_workload, results_identical
    from repro.serving.engine import ServingEngine

    n_rate = RATE_REQUESTS
    n_sat = max(4 * IN_FLIGHT, round(SAT_QPS * SAT_SHARE * seconds / ROUNDS))
    per_round = n_rate + n_sat
    stream, seeds = request_stream(seed, ROUNDS * per_round)
    rng = np.random.default_rng([seed, 1])  # arrival jitter, apart from the seeds
    schedules = [
        loadgen.jittered_schedule(RATE_QPS, n_rate, rng) for _ in range(ROUNDS)
    ]

    def build():
        graph = _graph()
        queries = build_workload(graph, HOT_QUERIES)
        engine = ServingEngine(graph)
        for s in seeds:
            for future in [engine.submit(q, HOT_WORLDS, s) for q in queries]:
                future.result()
        return graph, queries, engine

    (graph, queries, engine), setup_s = _timed_setup(
        build, lambda state: state[2].close()
    )

    def submit(i: int):
        qi, si = stream[i]
        return engine.submit(queries[qi], HOT_WORLDS, seeds[si])

    rounds: List[Dict[str, Any]] = []
    try:
        before = engine.cache.stats()
        if rec is not None:
            rec.on = True
        for r, offsets in enumerate(schedules):
            base = r * per_round
            gc.collect()
            rate_out, rate_start, rate_end = loadgen.open_loop(
                lambda i: submit(base + i), offsets
            )
            gc.collect()
            sat_out, sat_start, sat_end = loadgen.closed_loop(
                lambda i: submit(base + n_rate + i), n_sat, IN_FLIGHT
            )
            rounds.append({
                "outcomes": rate_out + sat_out,
                "rate": rate_out,
                "window": (rate_start, rate_end),
                "qps": n_sat / (sat_end - sat_start),
                "wall": sat_end - sat_start,
            })
        if rec is not None:
            rec.on = False
        after = engine.cache.stats()
        peak = _peak_rss_mb()
    finally:
        engine.close()

    # Output checks, after the timed phases: every served result against a
    # direct NMC estimate at the same coordinates.
    outcomes = [o for rnd in rounds for o in rnd["outcomes"]]
    failed = set(loadgen.failures(outcomes))
    expected: Dict[Tuple[int, int], Any] = {}
    for i, outcome in enumerate(outcomes):
        if i in failed:
            continue
        qi, si = key = tuple(int(x) for x in stream[i])
        if key not in expected:
            try:
                expected[key] = NMC().estimate(
                    graph, queries[qi], HOT_WORLDS, rng=seeds[si]
                )
            except Exception:  # a reference that cannot be computed fails the request
                expected[key] = None
        if expected[key] is None or not results_identical(
            outcome.future.result(), expected[key]
        ):
            failed.add(i)

    latencies = [loadgen.latencies_ms(rnd["rate"]) for rnd in rounds]
    hits, misses = after.hits - before.hits, after.misses - before.misses
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": peak,
            "throughput_qps": max(rnd["qps"] for rnd in rounds),
            "latency_p50_ms": min(quantile(lat, 0.5) for lat in latencies),
            "latency_tail_ms": min(quantile(lat, 0.99) for lat in latencies),
        },
        "extra": {
            "gen.late_ms_p99": quantile(
                [x for rnd in rounds for x in loadgen.lateness_ms(rnd["rate"])], 0.99
            ),
            "cache.hit_rate": hits / max(1, hits + misses),
            "cache.evictions": after.evictions - before.evictions,
            "cache.bytes_peak_mb": after.bytes_peak / (1 << 20),
        },
        # Fast-path cache lookups depend on how requests happened to batch,
        # so no count here has to repeat exactly.
        "counts": {},
        "wall_s": sum(rnd["wall"] for rnd in rounds),
        "rate_windows": [rnd["window"] for rnd in rounds],
    }


WORKLOADS: Dict[str, Callable[[int, float, Any], Dict[str, Any]]] = {
    "estimate-to-target": estimate_to_target,
    "serve-hot": serve_hot,
}

#: Layers (span names, plus ``batcher``) each workload must record calls on
#: in the traced run.  A refactor that moves a binding site shows up here as
#: a loud failure, not as a silently zeroed layer.
EXPECTED_LAYERS = {
    "estimate-to-target": [
        "estimate", "adaptive", "driver", "core.job", "core.leaf",
        "core.select", "core.stratify", "core.allocate", "core.condition",
        "world.sample", "bitsets.pack", "traversal",
    ],
    "serve-hot": ["engine.serve", "batcher", "cache.lookup", "traversal"],
}
