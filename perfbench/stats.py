"""The benchmark's own arithmetic: arrival times, percentiles, tails and due-time latency."""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

#: A tail percentile is only reported when this many samples lie beyond it.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by the nearest-rank rule.

    Returns the smallest sample such that at least ``q`` percent of the
    samples are at or below it, so every reported value was observed.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(count: int, beyond: int = TAIL_SAMPLES) -> float:
    """The highest percentile with at least ``beyond`` samples above it.

    With ``count`` samples the nearest-rank percentile ``q`` reports the
    sample of rank ``ceil(q * count / 100)``; the samples beyond it are the
    ``count - rank`` larger ones.  The highest admissible rank is therefore
    ``count - beyond``, i.e. ``q = 100 * (count - beyond) / count``
    (p99 needs 1000 samples).
    """
    if count <= beyond:
        raise ValueError(
            f"{count} samples leave no percentile with {beyond} samples beyond it"
        )
    return 100.0 * (count - beyond) / count


def tail(values: Sequence[float], beyond: int = TAIL_SAMPLES) -> Tuple[float, float]:
    """(percentile, value) of the highest percentile with ``beyond`` samples past it."""
    q = tail_percentile(len(values), beyond)
    return q, percentile(values, q)


def median(values: Sequence[float]) -> float:
    """The 50th percentile by the nearest-rank rule."""
    return percentile(values, 50.0)


def due_latencies(
    due: Sequence[float], done: Sequence[Optional[float]]
) -> List[float]:
    """Open-loop latency of each request, timed from when it was due.

    A request that never completed (``None``) counts as infinitely late, so
    it misses every latency limit.  Timing from the due time rather than
    from the actual send keeps a late generator from hiding a stall: a
    request sent late because an earlier call blocked still carries that
    wait.
    """
    if len(due) != len(done):
        raise ValueError("due and done must align")
    return [
        math.inf if finished is None else finished - start
        for start, finished in zip(due, done)
    ]


def more_rounds(done: int, elapsed: float, seconds: float) -> bool:
    """Whether a closed loop starts another round within its time budget.

    At least one round always runs; another starts only if a round of the
    average length so far still ends inside ``seconds``.
    """
    return done == 0 or elapsed * (done + 1) / done <= seconds


def arrival_offsets(rate: float, count: int, rng: random.Random) -> List[float]:
    """Due times of a Poisson stream of ``count`` alerts at mean ``rate``.

    Independent monitors fire independently, so their alerts arrive as a
    Poisson process.  Given that ``count`` of them arrive in a window of
    ``count / rate`` seconds, their times are sorted uniform draws over the
    window; the first is due at 0.  Fixing the window keeps every seed's
    offered rate the same while the bursts inside it still vary.  A strictly periodic schedule would
    phase-lock with the ingestor's batching window: a small change in
    service time then flips every batch between two sizes at once.
    """
    window = count / rate
    return [0.0] + sorted(rng.uniform(0.0, window) for _ in range(count - 1))
