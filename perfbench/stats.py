"""Small statistics helpers shared by the benchmark and its steadiness check."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: a tail percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``
    gives them with its default (exclusive) method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a constant)."""
    q1, q2, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(q2)


def tail_percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct`` percentile of ``values`` (nearest rank), or ``None`` when
    fewer than :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    n = len(values)
    rank = math.ceil(pct / 100.0 * n)
    if rank < 1 or n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def mean_of_medians(groups: dict[str, Sequence[float]]) -> float:
    """The mean over groups of each group's median.

    Used for request latency over several logs: a plain median over a mix of
    logs whose latencies differ by 40x lands on whichever log sits in the
    middle, so each log is summarised on its own and the logs weigh equally.
    """
    return statistics.fmean(statistics.median(v) for v in groups.values())
