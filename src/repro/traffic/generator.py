"""The open-loop traffic source (S21).

:class:`TrafficGenerator` turns arrival processes + workload samplers
into *hundreds to thousands of concurrent in-sim clients*: the source
process draws the next interarrival gap, samples the arrival's complete
descriptor (class, file, blocks), and spawns one independent executor
process — then immediately waits for the next arrival.  Executors never
feed back into the source, so offered load is whatever the arrival
process says it is, no matter how slowly the server answers.  That is
the defining property closed-loop drivers lack, and it is what makes
the saturation knee observable.

Determinism: the source draws *all* randomness from two named simulator
streams (``traffic.arrivals``, ``traffic.workload``) at arrival time.
Executor processes make zero random draws, so their interleaving —
which depends on server scheduling — cannot perturb the request
sequence.  Same seed, same arrivals, same descriptors, byte-identical
run.

The executor runs its operation inline and records one outcome.
Admission refusals (:class:`~repro.errors.BridgeThrottledError` /
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
from repro.sim import Timeout, join_all
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
                 recorder: Optional[SLORecorder] = None) -> None:
        self.system = system
        self.catalog = catalog
        self.mix = mix if mix is not None else RequestMix()
        self.recorder = recorder if recorder is not None else SLORecorder()
        self.spawned = 0
        #: First :data:`ARRIVAL_LOG_LIMIT` arrivals as ``(time, class,
        #: name)`` — determinism tests compare these across runs and seeds.
        self.arrival_log: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    # The source process
    # ------------------------------------------------------------------

    def open_loop(self, rate: float, duration: float,
                  arrival_kind: str = "poisson"):
        """Generator: emit arrivals for ``duration`` simulated seconds.

        Drive with ``system.run(gen.open_loop(...))``; the run then
        continues until every spawned executor resolves, so the final
        simulated clock covers the post-source drain as well.
        """
        sim = self.system.sim
        node = self.system.client_node
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
                self.spawned, self.catalog, self.mix, workload_rng
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
        """The operation body, then its one outcome; never raises."""
        sim = self.system.sim
        start = sim.now
        try:
            if request.cls == "parallel":
                yield from self._parallel_job(request)
            else:
                yield from self._naive_op(request)
            outcome = "ok"
        except BridgeThrottledError:
            outcome = "throttled"
        except BridgeOverloadError:
            outcome = "shed"
        except BridgeError:
            outcome = "failed"
        self.recorder.record_outcome(request.cls, outcome, sim.now - start)

    def _naive_op(self, request: TrafficRequest):
        node = self.system.client_node
        client = BridgeClient(
            node, self.system.fabric.port_for(request.name),
            name=f"traffic.{request.seq}", traffic_class=request.cls,
        )
        name = request.name
        if request.cls == "read":
            yield from client.random_read(name, request.block)
        elif request.cls == "write":
            payload = b"traffic-%08d|" % request.seq
            yield from client.random_write(name, request.block, payload)
        elif request.cls == "meta":
            yield from client.open(name)
        elif request.cls == "tool":
            yield from client.list_read(name, request.blocks)
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

        def worker_body(worker):
            while True:
                delivery = yield from worker.receive()
                if delivery.eof:
                    return

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
