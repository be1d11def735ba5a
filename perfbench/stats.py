"""Order statistics used by the benchmark.

Percentiles are nearest-rank, so a reported value is one that was
actually measured, and each carries a guarantee: at least
``MIN_BEYOND`` samples lie above it.  A percentile without that many
samples beyond it describes a handful of outliers, so asking for one
raises instead of returning it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """Zero-based index of the nearest-rank ``q``-th percentile of ``n``
    sorted samples."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    # Exact arithmetic: 0.99 * 1000 must be 990, not 990.0000000000001.
    return max(0, math.ceil(Fraction(str(q)) * n / 100) - 1)


def beyond(n: int, q: float) -> int:
    """Samples strictly after the ``q``-th percentile's rank."""
    return n - 1 - rank(n, q)


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile, which must have at least
    ``MIN_BEYOND`` samples beyond it."""
    n = len(samples)
    if beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {max(beyond(n, q), 0)} beyond it;"
            f" at least {MIN_BEYOND} are needed"
        )
    return sorted(samples)[rank(n, q)]


def highest_percentile(
    n: int, candidates: Sequence[float] = (99.99, 99.9, 99, 95, 90, 50)
) -> float:
    """The highest candidate percentile that ``n`` samples can report."""
    for q in sorted(candidates, reverse=True):
        if beyond(n, q) >= MIN_BEYOND:
            return q
    raise ValueError(f"{n} samples cannot report any of {candidates}")
