"""The repository benchmark: one command, one workload per fresh process.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced in a child process and prints its
end-to-end metrics.  ``--trace 1`` runs it twice, each in a fresh child:
untraced first (the reference for ``trace.overhead_pct`` and for the
fixed-seed counts both runs can see), then with every layer's binding sites
wrapped (see ``layers.py``); it prints the per-layer metrics and writes
per-root span sums to ``.perfbench/trace-<workload>-<seed>.jsonl``.  Metric
names, units and order come from ``BENCHMARK.json``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` beside this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Wall-clock budget of one invocation, children included.
BUDGET_S = 175


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# child: one workload run in this process
# --------------------------------------------------------------------------- #


def child(workload: str, seed: int, seconds: float, traced: bool) -> None:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    rec = None
    if traced:
        rec = layers.Recorder()
        layers.install(rec)
    out = workloads.WORKLOADS[workload](seed, seconds, rec)
    if traced:
        calls = layers.calls_by_layer(rec)
        missing = [
            name for name in workloads.EXPECTED_LAYERS[workload]
            if not calls.get(name)
        ]
        if missing:
            _fail(
                f"{workload}: layers recorded no calls: {', '.join(missing)} "
                "(a binding site moved?)", code=3,
            )
        gap = layers.check_accounting(rec.roots)
        if gap > 1e-6:
            _fail(f"{workload}: span self times miss a root's wall by {gap:.3g}s", 3)
        out["layers"] = layers.per_layer_metrics(rec, out["rate_windows"])
        out["calls"] = calls
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        rec.write(
            trace_dir / f"trace-{workload}-{seed}.jsonl",
            {"workload": workload, "seed": seed, "seconds": seconds, "calls": calls},
        )
    print(json.dumps(out))


def _run_child(
    workload: str, seed: int, seconds: float, traced: bool, deadline: float
) -> dict:
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0",
    ]
    try:
        done = subprocess.run(
            argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        _fail(f"{workload} run exceeded the {BUDGET_S}s budget", code=1)
    if done.returncode != 0:
        _fail(f"{workload} child exited with code {done.returncode}", code=1)
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------- #
# parent: orchestrate, check, report
# --------------------------------------------------------------------------- #


def _per_layer(plain: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    values.update(traced["extra"])
    # Per-family seconds-to-target are wall-clock figures: take them from
    # the untraced run.
    values.update({k: v for k, v in plain["extra"].items() if "_s_to_target_" in k})
    if not traced["rate_windows"]:
        overhead = traced["wall_s"] / plain["wall_s"] - 1.0
    else:
        overhead = (
            plain["metrics"]["throughput_qps"] / traced["metrics"]["throughput_qps"]
            - 1.0
        )
    values["trace.overhead_pct"] = 100.0 * overhead
    return values


def _fill_unreached(values: dict, wanted: list) -> None:
    """A layer the workload never reaches reports 0 (e.g. the cache on
    estimate-to-target); the traced run already failed if a layer the
    workload is predicted to use recorded no calls."""
    for metric in wanted:
        values.setdefault(metric["name"], 0.0)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"the program's sources are missing ({SRC / 'repro'})")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if args.child:
        child(args.workload, args.seed, args.seconds, bool(args.trace))
        return
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        _fail(f"unknown workload {args.workload!r}")

    started = time.perf_counter()
    deadline = started + BUDGET_S
    plain = _run_child(args.workload, args.seed, args.seconds, False, deadline)
    runs = [plain]
    if args.trace:
        traced = _run_child(args.workload, args.seed, args.seconds, True, deadline)
        runs.append(traced)
        wanted, values = spec["per_layer"], _per_layer(plain, traced)
        _fill_unreached(values, wanted)
    else:
        wanted, values = spec["end_to_end"], plain["metrics"]
    # Fixed-seed counts both runs see must repeat exactly.
    repeat = all(
        plain["counts"][name] == run["counts"][name]
        for run in runs for name in plain["counts"]
    )
    if not repeat:
        print(f"perfbench: fixed-seed counts differ: "
              f"{[run['counts'] for run in runs]}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        _fail(f"{args.workload}: no value for {', '.join(missing)}", code=1)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(
        f"perfbench: {args.workload} seed={args.seed} "
        f"{time.perf_counter() - started:.1f}s wall, counts {plain['counts']}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))


if __name__ == "__main__":
    main()
