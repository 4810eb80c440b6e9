"""The streaming summary the storage layer attaches to every device
(operation latencies, queue waits).  Counters, gauges and histograms
live in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import math


class Summary:
    """Streaming summary of a series: count / mean / min / max / stddev.

    Uses Welford's algorithm so it is single-pass and numerically stable.
    """

    __slots__ = ("name", "count", "_mean", "_m2", "min", "max", "total")

    def __init__(self, name: str = "summary") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        if not self.count:
            return f"Summary({self.name!r}, empty)"
        return (
            f"Summary({self.name!r}, n={self.count}, mean={self.mean:.6g}, "
            f"min={self.min:.6g}, max={self.max:.6g})"
        )
