"""Summary statistics shared by the workloads and the layer analysis."""

from __future__ import annotations

import numpy as np

# Tail levels in the order they are tried; a level is reported only when
# at least MIN_BEYOND samples lie beyond it.
TAIL_LEVELS = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def tail(values) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (label, value): "p99" needs n >= 1000, "p90" n >= 100, and a
    smaller sample falls back to its maximum, labelled "max".
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("tail of an empty sample")
    for level in TAIL_LEVELS:
        # round() keeps 1000 * (1 - 0.99) from landing a hair under 10
        if round(v.size * (100.0 - level) / 100.0, 9) >= MIN_BEYOND:
            return f"p{level:g}", float(np.percentile(v, level))
    return "max", float(v.max())


def median(values) -> float:
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("median of an empty sample")
    return float(np.median(v))


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of intervals.

    Overlapping intervals are counted once, so self time stays right
    when child spans overlap.
    """
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part its children cover."""
    return (end - start) - covered(start, end, child_intervals)
