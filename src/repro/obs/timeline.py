"""Utilization timelines: who was busy when, and how deep the queues got.

Three harvests, all pull- or hook-based so the simulation schedules no
extra events:

* **disk busy segments** — every :class:`repro.storage.base.BlockStoreABC` driver
  reports each service interval as it completes; ``busy_fraction``
  integrates them over any window;
* **interconnect traffic** — per-node message/byte counts recorded from
  the ``Node.send`` hook;
* **queue-depth samples** — :class:`repro.sim.resources.Resource` (and
  the disk queue) report depth at every acquire/release transition.

Sample streams are capped (keep-first, count-the-rest) so a long run
cannot grow memory without bound; the ``*_dropped`` counters make the
truncation visible instead of silent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Default cap on stored (time, depth) samples per queue.
DEFAULT_SAMPLE_CAPACITY = 100_000


class DiskTimeline:
    """Completed service intervals for one disk, in completion order."""

    __slots__ = ("segments", "ops", "busy_total")

    def __init__(self) -> None:
        self.segments: List[Tuple[float, float]] = []
        self.ops = 0
        self.busy_total = 0.0

    def record(self, start: float, end: float) -> None:
        self.segments.append((start, end))
        self.ops += 1
        self.busy_total += end - start

    def busy_fraction(self, start: float, end: float) -> float:
        """Fraction of [start, end] this disk spent servicing requests."""
        window = end - start
        if window <= 0.0:
            return 0.0
        busy = 0.0
        for seg_start, seg_end in self.segments:
            lo = max(seg_start, start)
            hi = min(seg_end, end)
            if hi > lo:
                busy += hi - lo
        return busy / window


class NodeTraffic:
    """Interconnect send/receive accounting for one node."""

    __slots__ = ("messages_sent", "bytes_sent", "messages_received",
                 "bytes_received")

    def __init__(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_received = 0
        self.bytes_received = 0


class QueueSamples:
    """(time, depth) samples for one queue, capped at ``capacity``."""

    __slots__ = ("samples", "dropped", "capacity", "max_depth")

    def __init__(self, capacity: int = DEFAULT_SAMPLE_CAPACITY) -> None:
        self.samples: List[Tuple[float, int]] = []
        self.dropped = 0
        self.capacity = capacity
        self.max_depth = 0

    def record(self, time: float, depth: int) -> None:
        if depth > self.max_depth:
            self.max_depth = depth
        if len(self.samples) >= self.capacity:
            self.dropped += 1
            return
        self.samples.append((time, depth))

    def mean_depth(self) -> float:
        """Time-weighted mean depth over the sampled transition stream."""
        if len(self.samples) < 2:
            return float(self.samples[0][1]) if self.samples else 0.0
        weighted = 0.0
        span = self.samples[-1][0] - self.samples[0][0]
        if span <= 0.0:
            return float(self.samples[-1][1])
        for (t0, depth), (t1, _) in zip(self.samples, self.samples[1:]):
            weighted += depth * (t1 - t0)
        return weighted / span


class UtilizationTimeline:
    """The S19 timeline store: disks, node traffic, queue depths."""

    def __init__(self) -> None:
        self.disks: Dict[str, DiskTimeline] = {}
        self.nodes: Dict[int, NodeTraffic] = {}
        self.queues: Dict[str, QueueSamples] = {}

    # -- hooks ---------------------------------------------------------

    def record_disk_busy(self, disk_name: str, start: float,
                         end: float) -> None:
        timeline = self.disks.get(disk_name)
        if timeline is None:
            timeline = self.disks[disk_name] = DiskTimeline()
        timeline.record(start, end)

    def record_message(self, src: int, dst: int, size: int,
                       time: float) -> None:
        sender = self.nodes.get(src)
        if sender is None:
            sender = self.nodes[src] = NodeTraffic()
        sender.messages_sent += 1
        sender.bytes_sent += size
        receiver = self.nodes.get(dst)
        if receiver is None:
            receiver = self.nodes[dst] = NodeTraffic()
        receiver.messages_received += 1
        receiver.bytes_received += size

    def record_queue_depth(self, name: str, time: float, depth: int) -> None:
        samples = self.queues.get(name)
        if samples is None:
            samples = self.queues[name] = QueueSamples()
        samples.record(time, depth)

    # -- summaries -----------------------------------------------------

    def disk_busy_fractions(self, start: float,
                            end: float) -> Dict[str, float]:
        return {
            name: timeline.busy_fraction(start, end)
            for name, timeline in sorted(self.disks.items())
        }

    def snapshot(self, end: Optional[float] = None) -> Dict[str, object]:
        """Plain-data dump (deterministic ordering) for reports/JSON."""
        horizon = end
        if horizon is None:
            horizon = max(
                (seg[1] for tl in self.disks.values() for seg in tl.segments),
                default=0.0,
            )
        return {
            "disks": {
                str(index): {
                    "ops": tl.ops,
                    "busy_seconds": tl.busy_total,
                    "busy_fraction": tl.busy_fraction(0.0, horizon),
                }
                for index, tl in sorted(self.disks.items())
            },
            "nodes": {
                str(index): {
                    "messages_sent": traffic.messages_sent,
                    "bytes_sent": traffic.bytes_sent,
                    "messages_received": traffic.messages_received,
                    "bytes_received": traffic.bytes_received,
                }
                for index, traffic in sorted(self.nodes.items())
            },
            "queues": {
                name: {
                    "samples": len(q.samples),
                    "dropped": q.dropped,
                    "max_depth": q.max_depth,
                    "mean_depth": q.mean_depth(),
                }
                for name, q in sorted(self.queues.items())
            },
        }
