"""The parallel-open view: jobs, block deliveries, and worker helpers.

Section 4.1: "A parallel open operation groups several processes into a
'job.'  The process that issues the parallel open becomes the job
controller...  When the job controller performs a read operation, t
blocks will be transferred (one to each worker) with as much parallelism
as possible.  When the job controller performs a write operation, t
blocks will be received from the workers in parallel."

If t exceeds the file's interleave width p, the server simulates the
extra parallelism by performing groups of p disk accesses at a time —
"virtual parallelism", whose hidden lock-step serialization the views
ablation bench measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.machine import Port


@dataclass
class BlockDelivery:
    """One block pushed by the server to one worker during a parallel read."""

    job_id: int
    worker_index: int
    block_number: int
    data: Optional[bytes]
    eof: bool = False


@dataclass
class Deposit:
    """One block pushed by a worker to the job port for a parallel write."""

    job_id: int
    worker_index: int
    data: bytes


@dataclass
class JobInfo:
    """What the controller gets back from a parallel open."""

    job_id: int
    file_name: str
    width: int
    total_blocks: int
    worker_count: int
    job_port: Port
    #: The server that created the job and holds its state: where the
    #: ``job`` routing rule sends parallel_read/write/close.  Not always
    #: the port the open was sent to — the S22 forwarding window may
    #: redirect a ``parallel_open`` to the name's current owner.
    server_port: Port


class JobController:
    """Controller-side helper: issues parallel opens/reads/writes.

    ``server_port`` may be a plain server :class:`Port` or a
    :class:`~repro.core.partitioned.PartitionedBridge`; either way the
    controller speaks through the client
    :func:`~repro.core.partitioned.client_for` builds for it, so the
    op table routes: :meth:`open` goes to the owner of the name, and the
    job's subsequent reads/writes/close to the server that answered
    (``JobInfo.server_port``).
    """

    def __init__(self, node, server_port: Port, name: str = "controller",
                 traffic_class: Optional[str] = None) -> None:
        # Imported here: partitioned -> server -> this module's records.
        from repro.core.partitioned import client_for

        self.node = node
        self.server_port = server_port
        self._client = client_for(node, server_port, name=name,
                                  traffic_class=traffic_class)
        self.job: Optional[JobInfo] = None

    def open(self, name: str, worker_ports: List[Port]):
        """Group the workers into a job on ``name``; returns JobInfo."""
        self.job = yield from self._client._call(
            "parallel_open", name=name, worker_ports=worker_ports
        )
        return self.job

    def read(self):
        """Move one block to every worker; returns blocks actually read
        (workers past EOF receive an eof delivery)."""
        return (yield from self._client._call("parallel_read",
                                              job=self._open_job()))

    def write(self):
        """Collect one deposited block from every worker and append them.

        Workers must have called :meth:`ParallelWorker.deposit` (the
        deposits may be in flight; the server waits for all of them).
        Returns the file's new total size in blocks.
        """
        return (yield from self._client._call("parallel_write",
                                              job=self._open_job()))

    def close(self):
        """Discard the job's server-side state."""
        job, self.job = self._open_job(), None
        return (yield from self._client._call("parallel_close", job=job))

    def _open_job(self) -> JobInfo:
        """The job every ``job``-routed op names (and is routed by)."""
        if self.job is None:
            raise RuntimeError("no job open; call open() first")
        return self.job


class ParallelWorker:
    """Worker-side helper: owns the port the server delivers blocks to."""

    def __init__(self, node, index: int, name: str = "worker") -> None:
        self.node = node
        self.index = index
        self.port = node.port(f"{name}{index}.blocks")

    def receive(self):
        """Wait for the next :class:`BlockDelivery` from the server."""
        delivery = yield self.port.recv()
        return delivery

    def deposit(self, job: JobInfo, data: bytes) -> None:
        """Send this worker's next block to the job (fire and forget)."""
        self.node.send(
            job.job_port,
            Deposit(job_id=job.job_id, worker_index=self.index, data=data),
            size=len(data),
        )
