"""The ``object`` driver: put/get object storage with cloud-ish latency.

A block device in interface, an object store in behaviour: each block is
one object, every access pays a high **first-byte latency** (request
routing, authentication, metadata lookup — tens of milliseconds) and
then a **bandwidth-dominated transfer** (``block_size / BANDWIDTH``),
and the store serves up to ``MAX_INFLIGHT`` requests *concurrently*
instead of serializing them on one arm.  That combination — terrible
per-op latency, fine aggregate throughput under parallelism — is the
characteristic shape of S3-class backends, and it is exactly the regime
where heterogeneous-fabric experiments get interesting: a single
object-store LFS node in an otherwise fast fabric gates every
interleaved file that touches it.

The driver keeps the full storage-kernel contract: wait/service span
stamping (wait is time queued *behind the inflight cap*, service is the
transfer), counters, fail/repair, and a ``blocks`` dict for fsck and
corruption tests.  ``busy_time`` sums per-request transfer time, so
``utilization()`` reads as *mean in-flight transfers* and can exceed
1.0 when the concurrency is actually being used.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import DeviceFailedError
from repro.sim import Timeout
from repro.storage.base import BlockStoreABC, InMemoryBlocks
from repro.storage.parameters import DiskParameters

#: First-byte latency: ~30 ms, twice the paper's disk access.
FIRST_BYTE = 0.030
#: Bandwidth: 4 MiB/s — a 1 KiB block transfers in ~0.24 ms, so
#: latency, not bandwidth, dominates single-block traffic.
BANDWIDTH = 4 * 1024 * 1024
#: Concurrent in-flight cap per store.
MAX_INFLIGHT = 4


def transfer_time(nbytes: int) -> float:
    """One object access: first byte, then ``nbytes`` at the bandwidth."""
    return FIRST_BYTE + nbytes / BANDWIDTH


class ObjectStoreDisk(InMemoryBlocks, BlockStoreABC):
    """Bounded-concurrency put/get store behind the block interface."""

    kind = "object"

    def __init__(
        self,
        sim,
        params: DiskParameters,
        name: Optional[str] = None,
    ) -> None:
        self.inflight = 0
        self.blocks: Dict[int, bytes] = {}
        super().__init__(sim, params, name=name)

    # ------------------------------------------------------------------
    # Serving: a dispatcher that keeps up to ``MAX_INFLIGHT`` transfers
    # running; each transfer is its own process, so requests overlap.
    # ------------------------------------------------------------------

    def _loop(self):
        sim = self.sim
        while True:
            if self.failed and self._pending:
                for request in self._pending:
                    request.error = DeviceFailedError(f"{self.name} has failed")
                    sim._schedule(0.0, request.waiter._resume, request)
                self._pending.clear()
            while self._pending and self.inflight < MAX_INFLIGHT:
                request = self._pending.pop(0)
                wait = sim.now - request.enqueued_at
                request.wait = wait
                self.wait_times.observe(wait)
                self.inflight += 1
                sim.spawn(
                    self._transfer(request),
                    name=f"{self.name}.transfer",
                    daemon=True,
                )
            yield self._wakeup.recv()

    def _transfer(self, request):
        sim = self.sim
        service = transfer_time(self.params.block_size)
        request.service = service
        self.service_times.observe(service)
        if self.heat is not None:
            self.heat.observe(self.heat_slot, None, service, sim.now)
        yield Timeout(service)
        self.busy_time += service
        self._perform(request)
        self.inflight -= 1
        sim._schedule(0.0, request.waiter._resume, request)
        self._wakeup.deliver(None)
