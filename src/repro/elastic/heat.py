"""S24 heat accounting: who is hot, right now.

The S19 registry and the per-server counters already *count* load, but
cumulatively — a partition that was hammered two minutes ago and is idle
now looks identical to one melting this second.  The control plane needs
recency, so :class:`HeatMap` keeps **bucketed sliding windows**: time is
cut into ``window / buckets`` wide epochs, every served request adds its
busy time and a count to the current epoch's bucket, and a read sums the
buckets that still fall inside the window.  Expiry is lazy (a bucket is
overwritten the first time its slot is touched in a later epoch), so the
map schedules no events of its own — installing it cannot perturb the
simulated event sequence, the same contract S19 instrumentation keeps.

Attribution happens at the base :class:`~repro.machine.rpc.Server` loop
(``server.heat``/``server.heat_partition``): per *partition* always, and
per *name* when the request names one (``name`` argument, or ``names``
for the S23 batched ops, whose busy time is split evenly across the
batch).  The op table's control-plane rows (:mod:`repro.core.ops`: the
migration RPCs) are excluded so the rebalancer never chases the load of
its own sweeps.

Everything is exposed two ways: programmatically (``partition_rates`` /
``imbalance`` / ``name_heat`` — what the :class:`~repro.elastic.policy.
Rebalancer` consumes) and through the ``rebalance.heat.*`` gauge family
of the metrics registry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.ops import CONTROL_OPS


class _WindowedCell:
    """One key's sliding window: ``buckets`` epoch-stamped accumulators."""

    __slots__ = ("epochs", "busy", "count")

    def __init__(self, buckets: int) -> None:
        self.epochs = [-1] * buckets
        self.busy = [0.0] * buckets
        self.count = [0.0] * buckets

    def add(self, epoch: int, busy: float, count: float) -> None:
        slot = epoch % len(self.epochs)
        if self.epochs[slot] != epoch:
            self.epochs[slot] = epoch
            self.busy[slot] = 0.0
            self.count[slot] = 0.0
        self.busy[slot] += busy
        self.count[slot] += count

    def totals(self, epoch: int) -> Tuple[float, float]:
        """Sum of the buckets still inside the window ending at ``epoch``."""
        floor = epoch - len(self.epochs) + 1
        busy = count = 0.0
        for slot, stamp in enumerate(self.epochs):
            if stamp >= floor:
                busy += self.busy[slot]
                count += self.count[slot]
        return busy, count

    def live(self, epoch: int) -> bool:
        floor = epoch - len(self.epochs) + 1
        return any(stamp >= floor for stamp in self.epochs)


class HeatMap:
    """Sliding-window load attribution per partition and per name.

    ``window`` is the lookback horizon in simulated seconds; ``buckets``
    its resolution (more buckets = smoother decay of old load, same
    total memory).  ``max_names`` caps the per-name table: when
    exceeded, names whose every bucket has expired are pruned — hot
    names are never evicted.
    """

    def __init__(self, partitions: int, window: float = 2.0,
                 buckets: int = 4, max_names: int = 512) -> None:
        if partitions < 1:
            raise ValueError("need at least one partition")
        if window <= 0:
            raise ValueError("window must be positive")
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.partitions = partitions
        self.window = window
        self.buckets = buckets
        self.max_names = max_names
        self._width = window / buckets
        self._parts = [_WindowedCell(buckets) for _ in range(partitions)]
        self._names: Dict[str, _WindowedCell] = {}
        self.recorded = 0  # requests attributed (lifetime)

    # -- write side (hot path: called once per served request) ---------

    def _epoch(self, now: float) -> int:
        return int(now / self._width)

    def record(self, partition: int, request, busy: float,
               now: float) -> None:
        """Attribute one served request (the ``Server._loop`` seam).

        Control-plane ops are skipped: attributing a migration pull to
        the migrated name would make the rebalancer chase its own
        sweeps."""
        if request.method in CONTROL_OPS:
            return
        args = request.args
        name = args.get("name")
        if name is not None:
            self.observe(partition, name, busy, now)
            return
        names = args.get("names")
        if names:
            share = busy / len(names)
            for batched in names:
                self.observe(partition, batched, share, now,
                             count=1.0 / len(names))
            return
        self.observe(partition, None, busy, now)

    def observe(self, partition: int, name: Optional[str], busy: float,
                now: float, count: float = 1.0) -> None:
        """Accumulate ``busy`` seconds (and ``count`` requests) against a
        partition, and against ``name`` when given."""
        epoch = self._epoch(now)
        self._parts[partition].add(epoch, busy, count)
        self.recorded += 1
        if name is None:
            return
        cell = self._names.get(name)
        if cell is None:
            if len(self._names) >= self.max_names:
                self._prune(epoch)
            cell = self._names[name] = _WindowedCell(self.buckets)
        cell.add(epoch, busy, count)

    def _prune(self, epoch: int) -> None:
        stale = [name for name, cell in self._names.items()
                 if not cell.live(epoch)]
        for name in stale:
            del self._names[name]

    # -- read side ------------------------------------------------------

    def partition_rates(self, now: float) -> List[float]:
        """Busy-seconds per second over the window, per partition."""
        epoch = self._epoch(now)
        return [cell.totals(epoch)[0] / self.window for cell in self._parts]

    def partition_request_rates(self, now: float) -> List[float]:
        """Requests per second over the window, per partition."""
        epoch = self._epoch(now)
        return [cell.totals(epoch)[1] / self.window for cell in self._parts]

    def imbalance(self, now: float, active: Optional[int] = None) -> float:
        """Peak-to-mean busy-rate ratio over the first ``active``
        partitions (1.0 = perfectly even, 0.0 = idle fabric)."""
        rates = self.partition_rates(now)
        if active is not None:
            rates = rates[:active]
        mean = sum(rates) / len(rates)
        return max(rates) / mean if mean > 0 else 0.0

    def name_heat(self, now: float,
                  top: Optional[int] = None) -> List[Tuple[str, float, float]]:
        """The hottest names: ``(name, busy_rate, request_rate)`` sorted
        hottest-first (ties broken by name, so the order — and therefore
        the rebalancer's choices — is deterministic)."""
        epoch = self._epoch(now)
        heat = []
        for name, cell in self._names.items():
            busy, count = cell.totals(epoch)
            if busy > 0 or count > 0:
                heat.append((name, busy / self.window, count / self.window))
        heat.sort(key=lambda item: (-item[1], -item[2], item[0]))
        return heat if top is None else heat[:top]

    # -- export ---------------------------------------------------------

    def publish(self, registry, now: float, active: Optional[int] = None) -> None:
        """Refresh the ``rebalance.*`` gauge family in an S19 registry."""
        rates = self.partition_rates(now)
        for partition, rate in enumerate(rates):
            registry.gauge(f"rebalance.heat.partition{partition}").set(rate)
        registry.gauge("rebalance.heat.imbalance").set(
            self.imbalance(now, active=active)
        )
        registry.gauge("rebalance.heat.names_tracked").set(
            float(len(self._names))
        )

    def snapshot(self, now: float, top: int = 8) -> Dict[str, object]:
        """Plain-data dump for reports and BENCH JSON."""
        return {
            "window": self.window,
            "partition_busy_rates": self.partition_rates(now),
            "partition_request_rates": self.partition_request_rates(now),
            "imbalance": self.imbalance(now),
            "hot_names": [
                {"name": name, "busy_rate": busy, "request_rate": count}
                for name, busy, count in self.name_heat(now, top=top)
            ],
            "recorded": self.recorded,
        }
