"""Order statistics shared by the workloads, the runner and ``compare.py``.

Nearest-rank percentiles (an actual sample, never an interpolation — the
same convention as ``repro.serve.loadgen.percentile``), the quartiles the
benchmark contract judges run-to-run spread by, and the rule for which
high percentile a sample may report at all.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "BEYOND",
    "highest_supported",
    "median",
    "percentile",
    "quartiles",
    "spread_share",
]

#: A high percentile is reported only when at least this many samples lie
#: beyond it; below that it is one or two outliers, not a tail.
BEYOND = 10


median = statistics.median


def percentile(values, p):
    """Nearest-rank *p*-th percentile of *values* (any order, not empty)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return ordered[min(len(ordered), rank) - 1]


def highest_supported(n):
    """The highest of p99, p95 and p90 with at least :data:`BEYOND` of *n*
    samples beyond its nearest rank, or ``None`` (p90 needs 100 samples)."""
    for p in (99, 95, 90):
        rank = max(1, math.ceil(round(p / 100.0 * n, 9)))
        if n - rank >= BEYOND:
            return p
    return None


def quartiles(values):
    """``(q1, q2, q3)`` as ``statistics.quantiles(values, n=4)`` gives them;
    a single value is its own three quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def spread_share(values):
    """Inter-quartile distance as a share of the median — the run-to-run
    spread every bound is judged against."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
