"""The naive client view of Bridge.

"Users who want to access data without bothering with the interleaved
structure of files can use this simple interface" (section 4.1).  Every
method returns a generator to be driven with ``yield from`` inside a
simulated process; a one-request op returns :meth:`BridgeClient._call`'s
own, so a block op is one frame between the caller and the RPC.

This class is the one hand-written client surface.  Every op leaves
through :meth:`BridgeClient._call`; a plain client sends everything to
its one server, and :class:`~repro.core.partitioned.PartitionedClient`
overrides only that seam, choosing the partition(s) by the op's routing
rule in :mod:`repro.core.ops`.  Build one with
:func:`repro.core.partitioned.client_for`, which picks the class from
what it is pointed at.
"""

from __future__ import annotations

from repro.config import BLOCK_SIZE
from repro.machine import Client, Port


class BridgeClient:
    """Sequential-file-system-style access through the Bridge Server."""

    def __init__(self, node, server_port: Port, name: str = "bridge-client",
                 traffic_class=None) -> None:
        self.node = node
        self.server_port = server_port
        self._rpc = Client(node, name, traffic_class=traffic_class)

    def _call(self, method: str, size: int = 0, job=None, **args):
        """Issue one op (a generator): the seam every method below
        leaves through.  ``job`` is the ``JobInfo`` of a ``job``-routed
        op, which goes to the server holding the job and carries only
        its id."""
        if job is not None:
            return self._rpc.call(job.server_port, method, size=size,
                                  job_id=job.job_id)
        return self._rpc.call(self.server_port, method, size=size, **args)

    # ------------------------------------------------------------------
    # File management
    # ------------------------------------------------------------------

    def create(self, name: str, width=None, node_slots=None, start: int = 0,
               disordered: bool = False):
        """Create an interleaved file; returns its file id.

        ``disordered=True`` creates a section-3 disordered file whose
        blocks scatter arbitrarily (see :mod:`repro.core.disorder`).
        """
        return self._call(
            "create", name=name, width=width, node_slots=node_slots,
            start=start, disordered=disordered,
        )

    def get_block_map(self, name: str):
        """The global->local map of a disordered file."""
        return self._call("get_block_map", name=name)

    def delete(self, name: str):
        """Delete a file; returns the total number of blocks freed."""
        return self._call("delete", name=name)

    def open(self, name: str):
        """Open (a hint, per section 4.1); returns an OpenResult."""
        return self._call("open", name=name)

    def stat(self, name: str):
        """Directory-only metadata probe; returns a FileStat (no LFS
        round trip — sizes are as of the last open/write)."""
        return self._call("stat", name=name)

    def get_info(self):
        """The Get Info package for tool construction (on a fabric,
        aggregated across every partition)."""
        return self._call("get_info")

    # ------------------------------------------------------------------
    # Batched metadata ops (S23)
    # ------------------------------------------------------------------
    #
    # Each carries the whole name list and returns one NameOutcome per
    # name, in input order; a bad name is that name's outcome, never an
    # exception.  A plain client issues ONE request; on a fabric the
    # names are bucketed by the live ring into windowed per-partition
    # sub-batches.

    def mopen(self, names):
        """Batched Open; returns ``[NameOutcome(value=OpenResult)]``."""
        return self._call("mopen", names=list(names))

    def mstat(self, names):
        """Batched stat; returns ``[NameOutcome(value=FileStat)]``."""
        return self._call("mstat", names=list(names))

    def mcreate(self, names, width=None):
        """Batched create (a shared width); returns
        ``[NameOutcome(value=file_id)]``."""
        return self._call("mcreate", names=list(names), width=width)

    def mdelete(self, names):
        """Batched delete; returns ``[NameOutcome(value=blocks_freed)]``."""
        return self._call("mdelete", names=list(names))

    # ------------------------------------------------------------------
    # Block access
    # ------------------------------------------------------------------

    def seq_read(self, name: str):
        """Next block as ``(block_number, data)``; ``(None, None)`` at EOF."""
        return self._call("seq_read", name=name)

    def seq_write(self, name: str, data: bytes):
        """Append one block; returns its global block number."""
        return self._call(
            "seq_write", size=BLOCK_SIZE, name=name, data=data
        )

    def random_read(self, name: str, block_number: int):
        return self._call(
            "random_read", name=name, block_number=block_number
        )

    def random_write(self, name: str, block_number: int, data: bytes):
        return self._call(
            "random_write", size=BLOCK_SIZE, name=name,
            block_number=block_number, data=data,
        )

    # ------------------------------------------------------------------
    # List I/O (noncontiguous access)
    # ------------------------------------------------------------------

    def list_read(self, name: str, blocks):
        """Noncontiguous read through the Bridge Server's list-I/O path.

        ``blocks`` is an iterable of global block numbers.  Returns the
        data chunks in that order; the server issues at most one batched
        EFS message per constituent LFS.
        """
        return self._call("list_read", name=name, blocks=list(blocks))

    def list_write(self, name: str, writes):
        """Noncontiguous write of ``(global_block, data)`` pairs; returns
        the file's new size in blocks."""
        writes = list(writes)
        return self._call(
            "list_write", size=BLOCK_SIZE * len(writes), name=name,
            writes=writes,
        )

    # ------------------------------------------------------------------
    # Whole-file conveniences
    # ------------------------------------------------------------------

    def read_all(self, name: str):
        """Open and sequentially read the whole file; returns data chunks."""
        yield from self.open(name)
        chunks = []
        while True:
            block_number, data = yield from self.seq_read(name)
            if block_number is None:
                return chunks
            chunks.append(data)

    def write_all(self, name: str, chunks):
        """Append every chunk in order; returns the number written."""
        count = 0
        for chunk in chunks:
            yield from self.seq_write(name, chunk)
            count += 1
        return count
