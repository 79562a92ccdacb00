"""Order statistics and interval arithmetic shared by the benchmark."""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (0.0 for an empty sequence)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, sample_count)``.  With ``n`` samples the
    percentile is ``100 * (1 - 10 / n)`` and its value is the nearest-rank
    sample ``n - 10`` (1-based), so exactly ten samples lie above it.  With
    fewer than 11 samples no such percentile exists; the maximum is
    returned with percentile 100 so callers can tell the case apart.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    if n <= TAIL_SAMPLES_BEYOND:
        return float(ordered[-1]), 100.0, n
    percentile = 100.0 * (1.0 - TAIL_SAMPLES_BEYOND / n)
    return float(ordered[n - TAIL_SAMPLES_BEYOND - 1]), percentile, n


def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by ``intervals`` after clipping to ``[lo, hi]``."""
    clipped: List[Tuple[float, float]] = []
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    covered = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in clipped:
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_start is not None:
        covered += cur_end - cur_start
    return covered


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the union of its children's intervals."""
    return (end - start) - union_length(children, start, end)


def growth(values: Sequence[float]) -> float:
    """Mean of the last tenth of ``values`` over the mean of the first tenth.

    ``values`` are in time order.  Returns 0.0 when there are fewer than
    20 samples, too few for two tenths to mean anything.
    """
    if len(values) < 20:
        return 0.0
    tenth = len(values) // 10
    first = mean(values[:tenth])
    return mean(values[-tenth:]) / first if first > 0 else 0.0
