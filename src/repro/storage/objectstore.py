"""The ``object`` driver: put/get object storage with cloud-ish latency.

A block device in interface, an object store in behaviour: each block is
one object, every access pays a high **first-byte latency** (request
routing, authentication, metadata lookup — tens of milliseconds) and
then a **bandwidth-dominated transfer** (``block_size / bandwidth``),
and the store serves up to ``max_inflight`` requests *concurrently*
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
from repro.storage.base import BlockStoreABC
from repro.storage.parameters import DiskParameters

#: Default first-byte latency: ~30 ms, twice the paper's disk access.
DEFAULT_FIRST_BYTE = 0.030
#: Default bandwidth: 4 MiB/s — a 1 KiB block transfers in ~0.24 ms,
#: so latency, not bandwidth, dominates single-block traffic.
DEFAULT_BANDWIDTH = 4 * 1024 * 1024
#: Default concurrent in-flight cap per store.
DEFAULT_MAX_INFLIGHT = 4


class ObjectStoreLatency:
    """First-byte + size/bandwidth transfer model."""

    def __init__(
        self,
        first_byte: float = DEFAULT_FIRST_BYTE,
        bandwidth: float = DEFAULT_BANDWIDTH,
    ) -> None:
        if first_byte < 0:
            raise ValueError("first-byte latency must be non-negative")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.first_byte = first_byte
        self.bandwidth = bandwidth

    def transfer_time(self, nbytes: int) -> float:
        return self.first_byte + nbytes / self.bandwidth


class ObjectStoreDisk(BlockStoreABC):
    """Bounded-concurrency put/get store behind the block interface."""

    kind = "object"

    def __init__(
        self,
        sim,
        params: DiskParameters,
        first_byte: float = DEFAULT_FIRST_BYTE,
        bandwidth: float = DEFAULT_BANDWIDTH,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        name: Optional[str] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.model = ObjectStoreLatency(first_byte, bandwidth)
        self.max_inflight = max_inflight
        self.inflight = 0
        self.blocks: Dict[int, bytes] = {}
        super().__init__(sim, params, name=name)

    def _read_block(self, block: int) -> bytes:
        return self.blocks.get(block, b"\x00" * self.params.block_size)

    def _write_block(self, block: int, data: bytes) -> None:
        self.blocks[block] = data

    # ------------------------------------------------------------------
    # Serving: a dispatcher that keeps up to ``max_inflight`` transfers
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
            while self._pending and self.inflight < self.max_inflight:
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
        size = self.params.block_size
        service = self.model.transfer_time(size)
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
