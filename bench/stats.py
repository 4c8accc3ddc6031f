"""Order statistics shared by the runner and the comparison tool.

Kept free of numpy and of the ``repro`` package so ``compare.py`` can
read result files on any host.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (0..100), linear interpolation between order
    statistics (numpy's default), so a sample always gives one value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    xs = sorted(float(v) for v in values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``."""
    return (percentile(values, 25.0), percentile(values, 50.0),
            percentile(values, 75.0))


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0.0:
        raise ValueError("geomean needs a non-empty positive sample")
    return math.exp(sum(math.log(v) for v in values) / len(values))
