"""Quantiles for the benchmark's latency metrics."""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import betainc


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (0.0 for no values).

    A weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights, instead of one or two of them: a run's median or p99 no longer
    jumps when a single sample crosses it, which is what makes a
    percentile of a few hundred samples repeat from run to run.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n == 0:
        return 0.0
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    edges = betainc(a, b, np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))
