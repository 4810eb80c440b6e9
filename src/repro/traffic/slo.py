"""SLO telemetry for open-loop traffic (S21).

The client-side half of the traffic subsystem's accounting: every
arrival is recorded when issued and again when it resolves, with one of
five outcomes:

* ``ok`` — served; latency lands in the per-class histogram.
* ``throttled`` — refused by a token bucket (typed error at the client).
* ``shed`` — refused by a bounded admission queue.
* ``abandoned`` — always 0: every client waits for its answer.  The
  outcome stays because the ledger and the committed traffic, elastic
  and rebalance bench rows report its count.
* ``failed`` — any other Bridge error (should be zero in healthy runs).

Per-class latency distributions use S19 :class:`~repro.obs.Histogram`
instruments (p50/p99/p999 via the configurable-quantile extension), so
summaries are deterministic and registry-adoptable.  *Goodput* counts
``ok`` completions per second of driving time — the number that peaks at
the saturation knee and then tells you whether your admission policy is
protecting the server (goodput holds) or not (goodput collapses while
queues grow).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.metrics import Histogram

OUTCOMES = ("ok", "throttled", "shed", "abandoned", "failed")

#: Latency bounds for traffic SLO histograms: the fast-reject floor
#: (sub-ms) up to deep-overload latencies.
SLO_LATENCY_BOUNDS: Tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0, 30.0, 100.0,
)


class ClassStats:
    """Counters and the service-latency histogram for one traffic class."""

    __slots__ = ("offered", "outcomes", "latency")

    def __init__(self) -> None:
        self.offered = 0
        self.outcomes: Dict[str, int] = {outcome: 0 for outcome in OUTCOMES}
        self.latency = Histogram(bounds=SLO_LATENCY_BOUNDS)

    @property
    def completed(self) -> int:
        return self.outcomes["ok"]

    def summary(self) -> Dict[str, object]:
        hist = self.latency
        return {
            "offered": self.offered,
            **{outcome: self.outcomes[outcome] for outcome in OUTCOMES},
            "p50": hist.p50,
            "p99": hist.p99,
            "p999": hist.p999,
            "mean": hist.mean,
            "max": hist.max if hist.max is not None else 0.0,
        }


class SLORecorder:
    """Aggregates per-class outcomes for one traffic run."""

    def __init__(self, registry=None) -> None:
        self._classes: Dict[str, ClassStats] = {}
        #: Optional S19 registry adoption: per-class latency histograms
        #: appear as ``traffic.<class>.latency`` in snapshots.
        self._registry = registry

    def _stats(self, cls: str) -> ClassStats:
        stats = self._classes.get(cls)
        if stats is None:
            stats = self._classes[cls] = ClassStats()
            if self._registry is not None:
                self._registry.adopt(
                    f"traffic.{cls}.latency", stats.latency
                )
        return stats

    # ------------------------------------------------------------------

    def record_issue(self, cls: str) -> None:
        self._stats(cls).offered += 1

    def record_outcome(self, cls: str, outcome: str, latency: float) -> None:
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        stats = self._stats(cls)
        stats.outcomes[outcome] += 1
        if outcome == "ok":
            stats.latency.observe(latency)

    # ------------------------------------------------------------------

    @property
    def classes(self) -> Dict[str, ClassStats]:
        return self._classes

    def total(self, outcome: Optional[str] = None) -> int:
        if outcome is None:
            return sum(stats.offered for stats in self._classes.values())
        return sum(stats.outcomes[outcome] for stats in self._classes.values())

    def goodput(self, duration: float) -> float:
        """``ok`` completions per second over ``duration`` seconds."""
        return self.total("ok") / duration if duration > 0 else 0.0

    def summary(self, duration: float) -> Dict[str, object]:
        """Deterministic plain-data dump for results and BENCH JSON."""
        offered = self.total()
        completed = self.total("ok")
        refused = self.total("throttled") + self.total("shed")
        out: Dict[str, object] = {
            "offered": offered,
            "completed": completed,
            "throttled": self.total("throttled"),
            "shed": self.total("shed"),
            "abandoned": self.total("abandoned"),
            "failed": self.total("failed"),
            "offered_rate": offered / duration if duration > 0 else 0.0,
            "goodput": self.goodput(duration),
            "refusal_rate": refused / offered if offered else 0.0,
            "abandon_rate": (
                self.total("abandoned") / offered if offered else 0.0
            ),
            "classes": {
                cls: stats.summary()
                for cls, stats in sorted(self._classes.items())
            },
        }
        return out
