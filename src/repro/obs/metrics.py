"""The metrics half of the observability subsystem (S19).

Three instrument kinds, all fully deterministic (no wall clock, no
sampling randomness):

* :class:`Counter` — a monotonically increasing integer;
* :class:`Gauge` — a last-value-wins float;
* :class:`Histogram` — a fixed-bucket latency histogram whose quantiles
  (p50/p95/p99) are interpolated from the bucket counts, so two
  identical runs produce byte-identical summaries.

Instruments live in a :class:`MetricsRegistry` under dotted component
namespaces (``bridge.op.seq_read``, ``efs.3.cache.hits``,
``disk0.service``).  Components may also *create instruments standalone*
and adopt them into a registry later — that is how the cache counters
(:mod:`repro.core.cache`, :mod:`repro.efs.cache`) keep their public
integer-attribute API, and how every device's ``wait_times`` /
``service_times`` histograms are recorded once, by the driver, while the
registry observes the very same objects.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency bucket upper bounds, in seconds.  Chosen to straddle
#: the cost model: sub-millisecond message/CPU charges at the bottom,
#: 15 ms disk accesses in the middle, multi-second tool phases on top.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = (
    0.0002, 0.0005, 0.001, 0.002, 0.005, 0.010, 0.015, 0.020, 0.030,
    0.050, 0.100, 0.200, 0.500, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0,
)


class Counter:
    """A monotonically increasing integer instrument."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.value})"


class Gauge:
    """A last-value-wins float instrument (queue depths, cache sizes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.value})"


class Histogram:
    """Fixed-bucket histogram with deterministic quantile estimates.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything larger.  ``quantile``
    interpolates linearly inside the winning bucket, which keeps the
    estimate deterministic and stable across runs — the point is
    comparing runs, not statistical perfection.
    """

    __slots__ = ("bounds", "counts", "overflow", "count", "total", "min", "max")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        chosen = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BOUNDS
        if not chosen or list(chosen) != sorted(chosen):
            raise ValueError("histogram bounds must be a sorted, non-empty sequence")
        self.bounds: Tuple[float, ...] = chosen
        self.counts: List[int] = [0] * len(chosen)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        low = self.min
        if low is None:
            self.min = self.max = value
        elif value < low:
            self.min = value
        elif value > self.max:
            self.max = value
        bounds = self.bounds
        index = bisect_left(bounds, value)
        if index < len(bounds):
            self.counts[index] += 1
        else:
            self.overflow += 1

    # ------------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1), interpolated within its bucket.

        The estimate is clamped to the observed ``[min, max]`` range:
        with few samples the in-bucket interpolation can wander past
        values that were ever recorded (one 1.5 ms sample in a
        [1, 2] ms bucket would report p999 ≈ 2 ms), and tail quantiles
        of a histogram must never exceed the largest observation.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = 0.0
        estimate = None
        for upper, bucket_count in zip(self.bounds, self.counts):
            if bucket_count:
                cumulative += bucket_count
                if cumulative >= target:
                    # Linear interpolation inside [lower, upper].
                    within = target - (cumulative - bucket_count)
                    estimate = lower + (upper - lower) * within / bucket_count
                    break
            lower = upper
        if estimate is None:
            # Landed in the overflow bucket: the observed maximum is the
            # only defensible point estimate.
            estimate = self.max if self.max is not None else self.bounds[-1]
        if self.min is not None and estimate < self.min:
            estimate = self.min
        if self.max is not None and estimate > self.max:
            estimate = self.max
        return estimate

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram(n={self.count}, p50={self.p50:.6f})"


class MetricsRegistry:
    """A flat, name-ordered collection of instruments.

    Names are dotted component paths.  ``counter``/``gauge``/``histogram``
    get-or-create (so hot paths need no existence checks); ``adopt``
    registers an instrument created elsewhere — the compatibility facade
    for pre-existing component counters.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = Counter()
            self._instruments[name] = instrument
        elif not isinstance(instrument, Counter):
            raise TypeError(f"{name!r} is a {type(instrument).__name__}, not a Counter")
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = Gauge()
            self._instruments[name] = instrument
        elif not isinstance(instrument, Gauge):
            raise TypeError(f"{name!r} is a {type(instrument).__name__}, not a Gauge")
        return instrument

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = Histogram(bounds)
            self._instruments[name] = instrument
        elif not isinstance(instrument, Histogram):
            raise TypeError(
                f"{name!r} is a {type(instrument).__name__}, not a Histogram"
            )
        return instrument

    def adopt(self, name: str, instrument) -> None:
        """Register an existing instrument under ``name`` (facade path)."""
        existing = self._instruments.get(name)
        if existing is not None and existing is not instrument:
            raise ValueError(f"metric {name!r} already registered")
        self._instruments[name] = instrument

    # ------------------------------------------------------------------

    def names(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._instruments if n.startswith(prefix))

    def items(self, prefix: str = "") -> Iterable[Tuple[str, object]]:
        for name in self.names(prefix):
            yield name, self._instruments[name]

    def snapshot(self, prefix: str = "") -> Dict[str, object]:
        """A plain-data dump (deterministic ordering) for reports/JSON."""
        out: Dict[str, object] = {}
        for name, instrument in self.items(prefix):
            if isinstance(instrument, Counter):
                out[name] = instrument.value
            elif isinstance(instrument, Gauge):
                out[name] = instrument.value
            elif isinstance(instrument, Histogram):
                out[name] = {
                    "count": instrument.count,
                    "sum": instrument.total,
                    "mean": instrument.mean,
                    "p50": instrument.p50,
                    "p95": instrument.quantile(0.95),
                    "p99": instrument.p99,
                    "p999": instrument.p999,
                    # inf is not valid strict JSON: the overflow bucket's
                    # edge is rendered as None in snapshots.
                    "buckets": [
                        [bound, count] for bound, count
                        in zip(instrument.bounds, instrument.counts)
                    ] + [[None, instrument.overflow]],
                }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry({len(self._instruments)} instruments)"
