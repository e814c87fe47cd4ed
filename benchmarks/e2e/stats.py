"""Summary statistics shared by the benchmark's runner and its tests.

Pure Python on purpose: the tier-1 harness tests import this module
without numpy, and every rule here is small enough to read whole.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: Percentiles tried for the tail, highest first.  A timing is reported as
#: its median plus the highest of these that has at least
#: ``TAIL_MIN_BEYOND`` samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule), ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the lowest rung lacks ten samples beyond it: the
    sample then supports a median only.
    """
    for q in TAIL_LADDER:
        # Rounded: 100 samples have exactly ten beyond p90, not 9.999...
        if round(count * (100.0 - q) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return q
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> dict[str, float | int | None]:
    """Median, quartiles, sample count and the supported tail percentile."""
    q1, med, q3 = quartiles(values)
    tail = tail_percentile(len(values))
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "count": len(values),
        "tail_q": tail,
        "tail": None if tail is None else percentile(values, tail),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a flat sample)."""
    q1, med, q3 = quartiles(values)
    return 0.0 if med == 0 else (q3 - q1) / abs(med)


def regression(first: float, second: float, better: str) -> float:
    """How much worse ``second`` reads than ``first``, as a share of ``first``.

    Negative when ``second`` is better.  ``better`` is ``"lower"`` or
    ``"higher"``.
    """
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
