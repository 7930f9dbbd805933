"""Order statistics shared by worker.py and run.py."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(samples: Iterable[float]) -> float:
    return statistics.median(samples)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))

