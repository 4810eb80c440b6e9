"""The storage kernel: the block-store contract every driver implements.

ViPIOS structures a parallel-I/O system as a minimal kernel over
swappable I/O subsystems; this module is that kernel for the Bridge
reproduction.  Everything above the device — EFS servers, the track
buffer/cache, parity and degraded paths, the fault injector, the
observability registry, every harness builder — talks to a
:class:`BlockStoreABC`, never to a concrete device class, so storage
backends are interchangeable *drivers* (see
:mod:`repro.storage.drivers` for the registry).

The contract a driver must keep:

* **Generator API** — ``data = yield from store.read(block)`` and
  ``yield from store.write(block, data)`` park the calling process for
  the device's simulated latency and raise
  :class:`~repro.errors.BadBlockAddressError` /
  :class:`~repro.errors.DeviceFailedError` on bad addresses or a failed
  device.  Unwritten blocks read as zeros.
* **Wait/service stamping** — every served request is stamped with its
  queueing ``wait`` and arm ``service`` time, and the request's
  observability span ends with ``wait=``/``service=`` args.  The S19
  critical-path analyzer splits disk time into queueing vs. service
  from exactly these stamps; a driver that omits them breaks the
  analyzer's exact latency accounting.
* **Counters** — ``reads``/``writes``/``busy_time`` plus the
  ``wait_times``/``service_times`` histograms, so ``utilization()``
  and every bench read the same telemetry from any backend.  The
  histograms are the driver's own record; an observed system adopts
  them into its metrics registry rather than recording twice.
* **Fault hooks** — :meth:`fail` errors all queued and future requests
  (what makes an interleaved file system lose *every* file when one
  device dies); :meth:`repair` restores service with contents intact.
* **Raw image access** — ``store.blocks`` is a mutable mapping of
  written block address to raw bytes.  fsck reads the blocks it
  visits from it, and corruption tests poke it directly; drivers
  with external media (the host-fs driver) expose a write-through view.
  :meth:`discard` is told of each block the file system frees: the
  in-memory drivers swap its bytes for their shared zeros, so a
  freed block costs no memory of its own, and the host-fs driver
  keeps its file.
* **Heat attribution** — when an experiment installs a
  :class:`~repro.elastic.heat.HeatMap` on ``store.heat`` (with
  ``store.heat_slot`` naming the owning LFS node), the driver reports
  each request's busy time into it.  Like all S19/S24 instrumentation
  this schedules no events, so installing it cannot perturb the
  simulated event sequence.

:class:`SingleArmBlockStore` carries the shared single-arm machinery —
one request served at a time, pluggable latency model and scheduler —
that the ``ram`` and ``hostfs`` drivers inherit; the object-store
driver replaces the loop with a bounded-concurrency transfer pool.
:class:`InMemoryBlocks` is the storage hooks the ``ram`` and object-store
drivers share: their ``blocks`` is a plain dict.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import BadBlockAddressError, DeviceFailedError
from repro.obs.metrics import Histogram
from repro.sim import Mailbox, Timeout
from repro.storage.parameters import DiskParameters
from repro.storage.scheduler import FCFSScheduler


@runtime_checkable
class LatencyModel(Protocol):
    """The pluggable cost model of a single-arm device.

    ``access`` prices one block operation: given the driver's RNG
    stream, the current head position, the target block, and the
    simulated time, it returns ``(service_seconds, new_head_position)``.
    :class:`~repro.storage.parameters.FixedLatency` and
    :class:`~repro.storage.parameters.GeometricLatency` are the two
    shipped implementations.
    """

    def access(self, rng, head_position: int, block: int,
               now: float) -> Tuple[float, int]:
        """``(service_seconds, new_head_position)`` of one access."""


@runtime_checkable
class IOScheduler(Protocol):
    """The pluggable queue discipline of a single-arm device.

    ``select`` picks which pending request the arm serves next, given
    the queue and the current head position, and returns its index into
    ``pending``.  FCFS / SSTF / elevator live in
    :mod:`repro.storage.scheduler`.
    """

    def select(self, pending: List, head_position: int) -> int:
        """Index into ``pending`` of the request to serve next."""


class BlockRequest:
    """One queued block operation, stamped as the driver serves it.

    A request is its own waitable: ``yield request`` queues it on its
    store and parks the caller until the driver resumes it; then
    :meth:`outcome` is what the operation returns.  That is the whole
    client API — :meth:`BlockStoreABC.read` / :meth:`~BlockStoreABC.write`
    are those three steps, and the block cache takes them inline."""

    __slots__ = ("store", "op", "block", "data", "waiter", "enqueued_at",
                 "result", "error", "wait", "service", "span")

    def __init__(self, store: "BlockStoreABC", op: str, block: int,
                 data: Optional[bytes]) -> None:
        self.store = store
        self.op = op
        self.block = block
        self.data = data
        self.waiter = None
        sim = store.sim
        self.enqueued_at = sim.now
        self.result: Optional[bytes] = None
        self.error: Optional[Exception] = None
        # Stamped by the driver loop so the caller's observability span
        # can split its interval into queueing vs. arm service.
        self.wait: Optional[float] = None
        self.service: Optional[float] = None
        obs = sim.obs
        self.span = None if obs is None else obs.begin(
            f"{store.name}.{op}", "disk", node=store.obs_node)

    def _wait(self, process) -> None:
        self.waiter = process
        store = self.store
        store._pending.append(self)
        store._wakeup.deliver(None)

    def outcome(self) -> Optional[bytes]:
        """Once served: close the disk span, raise the device's error, or
        return the block's bytes (``None`` for a write)."""
        if self.span is not None:
            self.store.sim.obs.end(self.span, block=self.block,
                                   wait=self.wait, service=self.service)
        if self.error is not None:
            raise self.error
        return self.result


class BlockStoreABC(abc.ABC):
    """Abstract block store: the device interface of the storage kernel.

    Subclasses provide a serving ``_loop`` (spawned at construction) and
    the raw storage hooks ``_read_block``/``_write_block``; everything
    else — the generator client API, span emission, failure semantics,
    counters — is shared, so every driver keeps the same contract by
    construction.
    """

    #: Registry name of this driver (see ``repro.storage.drivers``).
    kind: str = "abstract"
    #: The device draws from the simulator's ``<rng_stream>.<name>`` stream.
    rng_stream: str = "disk"

    def __init__(
        self,
        sim,
        params: DiskParameters,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.name = name or params.name
        self.failed = False
        self._pending: List[BlockRequest] = []
        self._wakeup = Mailbox(sim, f"{self.name}.wakeup")
        self._rng = sim.random.stream(f"{self.rng_stream}.{self.name}")
        # What an unwritten block reads as; bytes are immutable, so one
        # per driver serves every such read.
        self._zeros = bytes(params.block_size)
        self.reads = 0
        self.writes = 0
        self.busy_time = 0.0
        self.wait_times = Histogram()
        self.service_times = Histogram()
        # Node index for observability spans (disks have no node of their
        # own; the harness sets this to the owning LFS node).
        self.obs_node: Optional[int] = None
        # S24 heat attribution at the storage layer: experiments install
        # a HeatMap keyed by LFS slot; the driver reports each request's
        # busy time (no events scheduled — safe to install anywhere).
        self.heat = None
        self.heat_slot = 0
        sim.spawn(self._loop(), name=f"{self.name}.driver", daemon=True)

    # ------------------------------------------------------------------
    # Client API (generator style: value = yield from store.read(addr))
    # ------------------------------------------------------------------

    def read(self, block: int):
        """Read one block; returns its bytes (zeros if never written)."""
        request = BlockRequest(self, "read", block, None)
        yield request
        return request.outcome()

    def write(self, block: int, data: bytes):
        """Write one block (data must not exceed the block size)."""
        request = BlockRequest(self, "write", block, bytes(data))
        yield request
        request.outcome()

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def fail(self) -> None:
        """Fail the device: all queued and future requests error."""
        self.failed = True
        self._wakeup.deliver(None)

    def repair(self) -> None:
        """Clear the failure flag (contents are preserved: a 'reconnect')."""
        self.failed = False

    # ------------------------------------------------------------------
    # Storage hooks
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _loop(self):
        """The serving process: drain ``_pending``, stamping each request."""

    @abc.abstractmethod
    def _read_block(self, block: int) -> bytes:
        """Return the raw bytes of ``block`` (zeros if never written)."""

    @abc.abstractmethod
    def _write_block(self, block: int, data: bytes) -> None:
        """Persist ``data`` as the new contents of ``block``."""

    def discard(self, block: int) -> None:
        """The file system has freed ``block``: its bytes are dead.  An
        in-memory driver drops them for its shared zeros (the block
        stays written, so a track fill still installs it); a durable
        driver keeps them, since no free map survives a crash.  Costs
        no simulated time and schedules nothing."""

    def _perform(self, request: BlockRequest) -> None:
        """Validate and execute one request against the storage hooks."""
        if not 0 <= request.block < self.params.capacity_blocks:
            request.error = BadBlockAddressError(
                f"{self.name}: block {request.block} out of range "
                f"[0, {self.params.capacity_blocks})"
            )
            return
        if request.op == "read":
            self.reads += 1
            request.result = self._read_block(request.block)
        else:
            if len(request.data) > self.params.block_size:
                request.error = BadBlockAddressError(
                    f"{self.name}: write of {len(request.data)} bytes exceeds "
                    f"block size {self.params.block_size}"
                )
                return
            self.writes += 1
            self._write_block(request.block, request.data)

    def flush(self) -> None:
        """Host-durability hook: make written blocks durable on the
        backing medium.  Costs no simulated time (the simulated latency
        already covers the device); RAM-backed drivers are no-ops, the
        host-fs driver fsyncs its block files here."""

    # ------------------------------------------------------------------

    @property
    def total_operations(self) -> int:
        return self.reads + self.writes

    def utilization(self) -> float:
        """Fraction of simulated time the device was busy.  Drivers that
        overlap transfers (the object store) can exceed 1.0 — the value
        is mean in-flight transfers, not arm occupancy."""
        now = self.sim.now
        return self.busy_time / now if now > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.name!r}, ops={self.total_operations}, "
            f"queued={len(self._pending)})"
        )


class InMemoryBlocks:
    """The storage hooks of a driver whose ``blocks`` is a plain dict in
    process memory: the ``ram`` and ``object`` drivers."""

    def _read_block(self, block: int) -> bytes:
        data = self.blocks.get(block)
        return self._zeros if data is None else data

    def _write_block(self, block: int, data: bytes) -> None:
        self.blocks[block] = data

    def discard(self, block: int) -> None:
        blocks = self.blocks
        if block in blocks:
            blocks[block] = self._zeros


class SingleArmBlockStore(BlockStoreABC):
    """Shared single-arm machinery: one request in service at a time.

    Service time comes from a pluggable latency model; the order served
    from a pluggable scheduler (FCFS unless told otherwise).  This is
    the seed's device loop, hoisted so the ``ram`` and ``hostfs``
    drivers replay the exact same event sequence the committed
    acceptance trace pins.
    """

    def __init__(
        self,
        sim,
        params: DiskParameters,
        latency_model=None,
        scheduler=None,
        name: Optional[str] = None,
    ) -> None:
        self.latency = latency_model or params.default_latency()
        self.scheduler = scheduler or FCFSScheduler()
        self.head_position = 0
        super().__init__(sim, params, name=name)

    def _loop(self):
        sim = self.sim
        pending = self._pending
        # The arm's one sleep, re-aimed at each service time: the loop
        # yields it at once, so nothing reads a stale delay.
        arm = Timeout(0.0)
        while True:
            if not pending:
                yield self._wakeup
                continue
            if self.failed:
                for request in pending:
                    request.error = DeviceFailedError(f"{self.name} has failed")
                    sim._schedule(0.0, request.waiter._resume, request)
                pending.clear()
                continue
            index = self.scheduler.select(pending, self.head_position)
            request = pending.pop(index)
            service, new_position = self.latency.access(
                self._rng, self.head_position, request.block, sim.now
            )
            wait = sim.now - request.enqueued_at
            request.wait = wait
            request.service = service
            self.wait_times.observe(wait)
            self.service_times.observe(service)
            if self.heat is not None:
                self.heat.observe(self.heat_slot, None, service, sim.now)
            arm.delay = service
            yield arm
            self.busy_time += service
            self.head_position = new_position
            self._perform(request)
            # Resume the caller, due now, as Mailbox.deliver does.
            sim._ready.append((request.waiter._resume, request))
