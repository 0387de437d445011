"""Sample statistics for the ledger: the percentile rule, the geometric
mean, and the run-to-run spread used to set and check regression bounds.
"""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics §1).
MIN_SAMPLES_BEYOND = 10


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> int | None:
    """The highest percentile ``n`` samples support: p95 from 200
    samples (10 beyond), p90 from 100, otherwise none."""
    for q in (95, 90):
        if n * (100 - q) / 100.0 >= MIN_SAMPLES_BEYOND:
            return q
    return None


def summarize(samples: list[float]) -> dict:
    """Median, sample count and the tail percentile the count supports."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    q = tail_percentile(len(samples))
    if q is not None:
        out[f"p{q}"] = percentile(samples, q)
    return out


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median — the run-to-run
    noise figure every bound is compared against."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
