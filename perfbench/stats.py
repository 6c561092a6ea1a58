"""Small statistics helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math

TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    # The tolerance keeps float error (99.9 / 100 * 10000 > 9990) off the ceiling.
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def nearest_rank(values, pct: float) -> float:
    """The ``pct``-th percentile by the nearest-rank rule."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(values, min_beyond: int = MIN_BEYOND):
    """Highest candidate percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(pct, value)``, or None when even the median has fewer than
    ``min_beyond`` samples above it.
    """
    n = len(values)
    best = None
    for pct in TAIL_CANDIDATES:
        if n - _rank(pct, n) >= min_beyond:
            best = pct
    if best is None:
        return None
    return best, nearest_rank(values, best)


def self_time(total: float, children: float) -> float:
    """A span's duration minus the part its child spans cover."""
    if children > total + 1e-9:
        raise ValueError(f"child time {children} exceeds span time {total}")
    return max(0.0, total - children)
