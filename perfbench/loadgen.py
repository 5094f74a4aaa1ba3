"""Load generation against a ServingEngine from one generator thread.

Two phases, both driven by the calling thread (the only thread besides the
engine's dispatch thread):

* :func:`open_loop` sends each request at its scheduled due time whether or
  not earlier ones finished, and times each request from when it was *due*,
  so a stall also charges the requests queued behind it.  How late the
  generator itself ran is reported beside it.
* :func:`closed_loop` keeps a fixed number of requests in flight and sends
  the next one only when one completes; it gives saturation throughput.

Every future is resolved or failed by a deadline; one still pending then
counts as failed.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeout
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

#: Seconds a future may stay unresolved after its phase ends.
RESOLVE_DEADLINE_S = 60.0


class Outcome:
    """One request's future, due time and completion stamp."""

    __slots__ = ("future", "due", "sent", "done_at")

    def __init__(self, future: Future, due: float, sent: float) -> None:
        self.future = future
        self.due = due
        self.sent = sent
        self.done_at: Optional[float] = None


#: Relative spread of the gaps between scheduled arrivals.
JITTER = 0.1


def jittered_schedule(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds from phase start) at mean ``rate``.

    Gaps are uniform within ``JITTER`` of the mean gap: arrivals stay
    independent of completions, but without the Poisson clumps that make a
    short phase's quantiles depend on where the clumps happened to fall.
    """
    return np.cumsum(rng.uniform(1.0 - JITTER, 1.0 + JITTER, size=count) / rate)


def _stamp(outcome: Outcome) -> Callable[[Future], None]:
    def done(_future: Future) -> None:
        outcome.done_at = time.perf_counter()

    return done


def open_loop(
    send: Callable[[int], Future], offsets: Sequence[float]
) -> Tuple[List[Outcome], float, float]:
    """Send request ``i`` at ``start + offsets[i]``; returns outcomes and the
    phase's ``(start, end)``, where ``end`` is the last completion."""
    outcomes: List[Outcome] = []
    # A short lead, so the first request is not already late when it is due.
    start = time.perf_counter() + 0.05
    for i, offset in enumerate(offsets):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        outcome = Outcome(send(i), due, sent)
        outcome.future.add_done_callback(_stamp(outcome))
        outcomes.append(outcome)
    settle(outcomes)
    return outcomes, start, _last_done(outcomes, start)


def closed_loop(
    send: Callable[[int], Future], count: int, window: int
) -> Tuple[List[Outcome], float, float]:
    """Send ``count`` requests keeping ``window`` in flight."""
    slots = threading.Semaphore(window)
    outcomes: List[Outcome] = []
    start = time.perf_counter()
    for i in range(count):
        slots.acquire()
        sent = time.perf_counter()
        outcome = Outcome(send(i), sent, sent)
        outcome.future.add_done_callback(_stamp(outcome))
        outcome.future.add_done_callback(lambda _f: slots.release())
        outcomes.append(outcome)
    settle(outcomes)
    return outcomes, start, _last_done(outcomes, start)


def settle(outcomes: Sequence[Outcome]) -> None:
    """Wait for every future up to a shared deadline (pending ones stay
    pending and are counted failed by :func:`failures`)."""
    deadline = time.perf_counter() + RESOLVE_DEADLINE_S
    for outcome in outcomes:
        try:
            outcome.future.exception(timeout=max(0.0, deadline - time.perf_counter()))
        except FutureTimeout:
            return
    # A future's done-callbacks run just after its waiters wake: give the
    # completion stamps a moment to land.
    while any(o.done_at is None for o in outcomes) and time.perf_counter() < deadline:
        time.sleep(0.001)


def failures(outcomes: Sequence[Outcome]) -> List[int]:
    """Indices of requests that raised or never resolved."""
    return [
        i for i, o in enumerate(outcomes)
        if not o.future.done() or o.future.exception() is not None
    ]


def latencies_ms(outcomes: Sequence[Outcome]) -> List[float]:
    """Due-time-to-completion latency of every completed request."""
    return [
        (o.done_at - o.due) * 1e3 for o in outcomes if o.done_at is not None
    ]


def lateness_ms(outcomes: Sequence[Outcome]) -> List[float]:
    """How late the generator sent each request."""
    return [(o.sent - o.due) * 1e3 for o in outcomes]


def _last_done(outcomes: Sequence[Outcome], start: float) -> float:
    stamps = [o.done_at for o in outcomes if o.done_at is not None]
    return max(stamps) if stamps else start
