"""Regenerate ``reference.json``: the estimate-to-target anchors and values.

The anchors are the ``N_ANCHORS`` highest-out-degree nodes of the
facebook-like surrogate at scale 0.2 (stable order, as
``repro.serving.bench`` picks them).  Each reference value is a long
fixed-seed NMC run; its 95% half-width is stored beside it so the
benchmark's accuracy check can allow for the reference's own error.  The
check is statistical, never bit-exact, so a change of RNG regime cannot
break it.

Run from the repository root::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from repro.datasets.surrogates import facebook_like  # noqa: E402
from repro.graph.statuses import EdgeStatuses  # noqa: E402
from repro.graph.world import iter_mask_blocks  # noqa: E402
from repro.queries.influence import InfluenceQuery  # noqa: E402

N_ANCHORS = 16
N_WORLDS = 200_000
SEED = 20140331


def main() -> None:
    graph = facebook_like(scale=0.2)
    degrees = np.diff(graph.adjacency.indptr)
    order = np.argsort(degrees, kind="stable")[::-1]
    anchors = []
    for node in order[:N_ANCHORS]:
        query = InfluenceQuery(int(node))
        values = np.concatenate([
            query.evaluate_values(graph, block)
            for block in iter_mask_blocks(EdgeStatuses(graph), N_WORLDS, SEED)
        ])
        value = float(values.mean())
        half_width = float(1.96 * values.std(ddof=1) / np.sqrt(values.size))
        anchors.append({"node": int(node), "value": value, "half_width": half_width})
        print(f"node {int(node)}: {value:.4f} +- {half_width:.4f}")
    payload = {
        "graph": "facebook_like(scale=0.2)",
        "estimator": f"plain Monte Carlo, {N_WORLDS} worlds, rng={SEED}",
        "anchors": anchors,
    }
    (HERE / "reference.json").write_text(json.dumps(payload, indent=2) + "\n")


if __name__ == "__main__":
    main()
