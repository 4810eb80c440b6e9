"""The open-loop traffic source (S21).

:class:`TrafficGenerator` turns arrival processes + workload samplers
into *hundreds to thousands of concurrent in-sim clients*: the source
process draws the next interarrival gap, samples the arrival's complete
descriptor (class, file, blocks, slow-client stall), and spawns an
independent executor process — then immediately waits for the next
arrival.  Executors never feed back into the source, so offered load is
whatever the arrival process says it is, no matter how slowly the
server answers.  That is the defining property closed-loop drivers
lack, and it is what makes the saturation knee observable.

Determinism: the source draws *all* randomness from two named simulator
streams (``traffic.arrivals``, ``traffic.workload``) at arrival time.
Executor processes make zero random draws, so their interleaving —
which depends on server scheduling — cannot perturb the request
sequence.  Same seed, same arrivals, same descriptors, byte-identical
run.

Abandonment: an executor with finite ``patience`` races its operation
against a timer (:class:`~repro.sim.AnyOf` over the inner process's
completion signal and a deadline signal).  When the timer wins, the
client walks away and the outcome is ``abandoned`` — but the inner
operation keeps running, because a real server cannot reclaim work a
departed client already queued.  Admission refusals
(:class:`~repro.errors.BridgeThrottledError` /
:class:`~repro.errors.BridgeOverloadError`) are caught *inside* the
executor and recorded as first-class outcomes, never raised into the
simulation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import (
    BlockDelivery,
    BridgeClient,
    JobController,
    ParallelWorker,
)
from repro.errors import (
    BridgeError,
    BridgeOverloadError,
    BridgeThrottledError,
)
from repro.sim import AnyOf, Signal, Timeout, join_all
from repro.traffic.arrivals import make_arrivals
from repro.traffic.slo import SLORecorder
from repro.traffic.workload import (
    RequestMix,
    TrafficRequest,
    ZipfCatalog,
    sample_request,
)

#: Worker processes reading each parallel-open job.
PARALLEL_WORKERS = 2
#: Arrivals kept in ``TrafficGenerator.arrival_log``.
ARRIVAL_LOG_LIMIT = 256


class TrafficGenerator:
    """Drives one Bridge system with open-loop multi-class traffic."""

    def __init__(self, system, catalog: ZipfCatalog, *,
                 mix: Optional[RequestMix] = None,
                 recorder: Optional[SLORecorder] = None,
                 patience: Optional[float] = None,
                 slow_fraction: float = 0.0,
                 slow_stall: float = 0.05,
                 tool_span: int = 6) -> None:
        self.system = system
        self.catalog = catalog
        self.mix = mix if mix is not None else RequestMix()
        self.recorder = recorder if recorder is not None else SLORecorder()
        self.patience = patience
        self.slow_fraction = slow_fraction
        self.slow_stall = slow_stall
        self.tool_span = tool_span
        self.spawned = 0
        #: First :data:`ARRIVAL_LOG_LIMIT` arrivals as ``(time, class,
        #: name)`` — determinism tests compare these across runs and seeds.
        self.arrival_log: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    # The source process
    # ------------------------------------------------------------------

    def open_loop(self, rate: float, duration: float,
                  arrival_kind: str = "poisson", arrivals=None):
        """Generator: emit arrivals for ``duration`` simulated seconds.

        Drive with ``system.run(gen.open_loop(...))``; the run then
        continues until every spawned executor resolves, so the final
        simulated clock covers the post-source drain as well.
        """
        sim = self.system.sim
        node = self.system.client_node
        if arrivals is None:
            arrivals = make_arrivals(arrival_kind, rate)
        arrival_rng = sim.random.stream("traffic.arrivals")
        workload_rng = sim.random.stream("traffic.workload")
        deadline = sim.now + duration
        while True:
            gap = arrivals.next_delay(arrival_rng)
            if sim.now + gap >= deadline:
                return self.spawned
            yield Timeout(gap)
            request = sample_request(
                self.spawned, self.catalog, self.mix, workload_rng,
                slow_fraction=self.slow_fraction,
                slow_stall=self.slow_stall,
                tool_span=self.tool_span,
            )
            if len(self.arrival_log) < ARRIVAL_LOG_LIMIT:
                self.arrival_log.append((sim.now, request.cls, request.name))
            self.recorder.record_issue(request.cls)
            self.spawned += 1
            node.spawn(
                self._execute(request), name=f"traffic.{request.seq}"
            )

    # ------------------------------------------------------------------
    # Executors (one process per arrival)
    # ------------------------------------------------------------------

    def _execute(self, request: TrafficRequest):
        sim = self.system.sim
        node = self.system.client_node
        start = sim.now
        inner = node.spawn(
            self._attempt(request), name=f"traffic.{request.seq}.op"
        )
        if self.patience is None:
            outcome = yield inner.join()
        else:
            deadline = Signal(sim)
            sim.call_later(self.patience, deadline.fire, "abandoned")
            index, value = yield AnyOf([inner.completion, deadline])
            outcome = value if index == 0 else "abandoned"
        self.recorder.record_outcome(request.cls, outcome, sim.now - start)

    def _attempt(self, request: TrafficRequest):
        """The operation body; returns an outcome string, never raises."""
        try:
            if request.cls == "parallel":
                yield from self._parallel_job(request)
            else:
                yield from self._naive_op(request)
        except BridgeThrottledError:
            return "throttled"
        except BridgeOverloadError:
            return "shed"
        except BridgeError:
            return "failed"
        return "ok"

    def _naive_op(self, request: TrafficRequest):
        node = self.system.client_node
        # Resolved once per arrival: a stalled request's follow-up read
        # goes to the same partition and rides the forwarding window.
        client = BridgeClient(
            node, self.system.fabric.port_for(request.name),
            name=f"traffic.{request.seq}", traffic_class=request.cls,
        )
        name = request.name
        if request.cls == "read":
            yield from client.random_read(name, request.block)
            if request.stall > 0.0:
                # Slow client: a paced second read holds the session open.
                yield Timeout(request.stall)
                follow = (request.block + 1) % self.catalog.blocks_per_file
                yield from client.random_read(name, follow)
        elif request.cls == "write":
            payload = b"traffic-%08d|" % request.seq
            yield from client.random_write(name, request.block, payload)
        elif request.cls == "meta":
            yield from client.open(name)
        elif request.cls == "tool":
            blocks = request.blocks or [request.block]
            if request.stall > 0.0 and len(blocks) > 1:
                half = len(blocks) // 2
                yield from client.list_read(name, blocks[:half])
                yield Timeout(request.stall)
                yield from client.list_read(name, blocks[half:])
            else:
                yield from client.list_read(name, blocks)
        else:
            raise ValueError(f"unknown traffic class {request.cls!r}")

    def _parallel_job(self, request: TrafficRequest):
        """One parallel-open job: open, read to EOF, close.

        Worker processes are spawned only after the open is admitted, so
        a refused job leaves no blocked workers behind; a failure mid-job
        poisons the worker ports with eof deliveries so they always
        terminate."""
        node = self.system.client_node
        controller = JobController(
            node, self.system.server_target(),
            name=f"traffic.{request.seq}.ctl", traffic_class="parallel",
        )
        workers = [
            ParallelWorker(node, index, name=f"traffic.{request.seq}.w")
            for index in range(PARALLEL_WORKERS)
        ]

        stall = request.stall

        def worker_body(worker):
            while True:
                delivery = yield from worker.receive()
                if delivery.eof:
                    return
                if stall > 0.0:
                    yield Timeout(stall)  # slow consumer

        job = yield from controller.open(
            request.name, [w.port for w in workers]
        )
        worker_processes = [
            node.spawn(worker_body(w), name=f"traffic.{request.seq}.w{w.index}")
            for w in workers
        ]
        try:
            while True:
                count = yield from controller.read()
                if count == 0:
                    break
            yield from controller.close()
        except BridgeError:
            # Poison the workers so they terminate, then re-raise for
            # outcome classification.  Direct delivery is a local
            # bookkeeping act, not a modeled message.
            for worker in workers:
                worker.port.mailbox.deliver(BlockDelivery(
                    job_id=job.job_id, worker_index=worker.index,
                    block_number=-1, data=None, eof=True,
                ))
            yield join_all(worker_processes)
            raise
        yield join_all(worker_processes)
