"""The tail rule and the metric-name grammar."""

from __future__ import annotations

import math
import re

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    """Metric and workload names: a letter or digit, then at most 63
    letters, digits, '_', '.' or '-'."""
    return NAME.fullmatch(name) is not None


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile p that leaves at least TAIL_BEYOND of n
    samples ranked above rank ceil(p n / 100); None below TAIL_BEYOND + 1
    samples."""
    if n <= TAIL_BEYOND:
        return None
    return math.floor(100 * (n - TAIL_BEYOND) / n)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> tuple[int, float]:
    """(percentile, value) of the tail rule; raises on too few samples."""
    p = tail_percentile(len(values))
    if p is None:
        raise ValueError(f"{len(values)} samples leave no percentile with "
                         f"{TAIL_BEYOND} samples beyond it")
    return p, percentile(values, p)
