"""Client-side helper for talking to one EFS server.

Both the Bridge Server and tool workers use this wrapper.  Every method
returns a generator (``yield from`` it inside a simulated process); a
one-request op returns :meth:`Client.call <repro.machine.rpc.Client.call>`'s
own, so a block op is one frame between the caller and the RPC.  Wire
sizes are charged for block payloads in both directions.
"""

from __future__ import annotations

from repro.config import BLOCK_SIZE
from repro.machine import Client, Port


class EFSClient:
    """Typed RPC surface of :class:`~repro.efs.server.EFSServer`.

    One instance supports one outstanding request at a time.  A sequential
    reader should thread the hint: pass ``result.next_addr`` as the hint
    of the following read.
    """

    def __init__(self, node, lfs_port: Port, name: str = "efs-client") -> None:
        self.node = node
        self.port = lfs_port
        self._rpc = Client(node, name)

    # ------------------------------------------------------------------

    def create(self, file_number: int, global_file_id: int = 0, width: int = 1,
               column: int = 0):
        return self._rpc.call(
            self.port,
            "create",
            file_number=file_number,
            global_file_id=global_file_id,
            width=width,
            column=column,
        )

    def delete(self, file_number: int):
        """Returns the number of blocks freed."""
        return self._rpc.call(self.port, "delete", file_number=file_number)

    def read(self, file_number: int, block_number: int, hint=None):
        """Returns a :class:`~repro.efs.messages.ReadResult`."""
        return self._rpc.call(
            self.port,
            "read",
            file_number=file_number,
            block_number=block_number,
            hint=hint,
        )

    def write(self, file_number: int, block_number: int, data: bytes, hint=None):
        """Returns a :class:`~repro.efs.messages.WriteResult`."""
        return self._rpc.call(
            self.port,
            "write",
            size=BLOCK_SIZE,
            file_number=file_number,
            block_number=block_number,
            data=data,
            hint=hint,
        )

    def read_blocks(self, file_number: int, block_numbers, hint=None):
        """Batched list-I/O read: one RPC for many blocks.

        Returns a :class:`~repro.efs.messages.BatchReadResult` whose
        ``results`` follow the request order of ``block_numbers``.
        """
        return self._rpc.call(
            self.port,
            "read_blocks",
            file_number=file_number,
            block_numbers=list(block_numbers),
            hint=hint,
        )

    def append(self, file_number: int, data: bytes):
        """Returns a :class:`~repro.efs.messages.WriteResult`."""
        return self._rpc.call(
            self.port,
            "append",
            size=BLOCK_SIZE,
            file_number=file_number,
            data=data,
        )

    def info(self, file_number: int):
        """Returns a :class:`~repro.efs.messages.FileInfo`."""
        return self._rpc.call(self.port, "info", file_number=file_number)

    def flush(self):
        return self._rpc.call(self.port, "flush")

    # ------------------------------------------------------------------

    def read_file(self, file_number: int):
        """Read a whole local file sequentially, threading hints.

        Yields nothing to the caller until done; returns the list of data
        areas (one 960-byte chunk per block).
        """
        info = yield from self.info(file_number)
        chunks = []
        hint = info.head_addr
        for block_number in range(info.size_blocks):
            result = yield from self.read(file_number, block_number, hint=hint)
            chunks.append(result.data)
            hint = result.next_addr
        return chunks

    def write_file(self, file_number: int, chunks):
        """Append every chunk in order (file should be freshly created)."""
        results = []
        for chunk in chunks:
            results.append((yield from self.append(file_number, chunk)))
        return results
