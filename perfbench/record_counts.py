"""Record the fixed-seed counts of the traced runs in ``counts.json``.

Runs the traced estimate-to-target workload twice with the same seed,
checks that every recorded count repeats exactly, and writes them out so
later changes can cite them (as counts, not as speed-ups).  The serving
workload has none: fast-path cache lookups depend on how requests batch.
Run from the repository root::

    python3 perfbench/record_counts.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The one seed and run length the recorded counts are for.
SEED = 1
SECONDS = 30

#: Counts that must repeat exactly for a fixed seed.
COUNTS = {
    "estimate-to-target": [
        "world.worlds_sampled", "core.leaf_calls", "traversal.calls",
        "adaptive.worlds_to_target", "adaptive.rounds",
    ],
}


def traced_counts(workload: str, seed: int, seconds: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]
    done = subprocess.run(
        argv, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True
    )
    out = json.loads(done.stdout.strip().splitlines()[-1])
    values = {**out["counts"], **out["layers"]}
    return {name: int(values[name]) for name in COUNTS[workload]}


def main() -> None:
    recorded = {"seed": SEED, "seconds": SECONDS, "workloads": {}}
    for workload in COUNTS:
        first = traced_counts(workload, SEED, SECONDS)
        second = traced_counts(workload, SEED, SECONDS)
        if first != second:
            sys.exit(f"{workload}: counts differ between runs: {first} vs {second}")
        recorded["workloads"][workload] = first
        print(workload, first)
    (HERE / "counts.json").write_text(json.dumps(recorded, indent=2) + "\n")


if __name__ == "__main__":
    main()
