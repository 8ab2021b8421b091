"""Small statistics and bookkeeping shared by the workloads."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def fit_exponent(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of ``log y`` against ``log x``; NaN when
    fewer than two distinct positive ``x`` values exist."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return float("nan")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Ledger:
    """Operations attempted and failed, with a reason per failure."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_ratio(self) -> float:
        return ratio(self.failed, self.attempted)

    def record(self, what: str, problems: Sequence[str] = ()) -> bool:
        """Count one operation; any problem makes it one failure."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {problems[0]}")
        return not problems
