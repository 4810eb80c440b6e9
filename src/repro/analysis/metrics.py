"""Derived experiment metrics: speedup, efficiency, throughput."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List


def speedup(base_time: float, time: float) -> float:
    """How many times faster than the base configuration."""
    if time <= 0:
        return math.inf
    return base_time / time


def efficiency(base_time: float, base_p: int, time: float, p: int) -> float:
    """Speedup per added processor ratio (1.0 = perfectly linear)."""
    if p <= 0 or base_p <= 0:
        raise ValueError("processor counts must be positive")
    return speedup(base_time, time) / (p / base_p)


def throughput(units: int, elapsed: float) -> float:
    """Units per second (records, blocks, requests...)."""
    return units / elapsed if elapsed > 0 else 0.0


@dataclass
class ScalingPoint:
    """One row of a scaling experiment."""

    p: int
    time: float
    throughput: float
    speedup: float
    efficiency: float


def scaling_table(times: Dict[int, float], units: int) -> List[ScalingPoint]:
    """Build the standard scaling table from per-p times."""
    if not times:
        return []
    base_p = min(times)
    base_time = times[base_p]
    points = []
    for p in sorted(times):
        points.append(
            ScalingPoint(
                p=p,
                time=times[p],
                throughput=throughput(units, times[p]),
                speedup=speedup(base_time, times[p]),
                efficiency=efficiency(base_time, base_p, times[p], p),
            )
        )
    return points


def is_superlinear(times: Dict[int, float]) -> bool:
    """True if every step up in p improves time by more than p grew."""
    ps = sorted(times)
    for smaller, larger in zip(ps, ps[1:]):
        if times[smaller] / times[larger] <= larger / smaller:
            return False
    return True
