"""The conventional-file-system baseline: one processor, one disk.

This is the system the paper's O(n) copy claim refers to: everything —
directory, block lists, data — lives behind a single EFS instance on a
single node, and every block crosses the interconnect to the client.
Built from the same EFS/disk substrates as Bridge so comparisons isolate
exactly one variable: parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config import DEFAULT_CONFIG
from repro.efs import EFSClient, EFSServer
from repro.machine import Machine
from repro.sim import Simulator
from repro.storage import make_driver


@dataclass
class SequentialCopyResult:
    blocks: int
    elapsed: float


class SequentialSystem:
    """A single-LFS installation with a remote client node."""

    def __init__(self, seed: int = 0) -> None:
        self.config = DEFAULT_CONFIG
        self.sim = Simulator(seed=seed)
        self.machine = Machine(self.sim, 2, config=self.config)
        self.fs_node = self.machine.node(0)
        self.client_node = self.machine.node(1)
        self.disk = make_driver(None, self.sim, name="disk0")
        self.efs = EFSServer(self.fs_node, self.disk, self.config)
        self._next_file = 1

    # ------------------------------------------------------------------

    def client(self) -> EFSClient:
        return EFSClient(self.client_node, self.efs.port)

    def allocate_file_number(self) -> int:
        number = self._next_file
        self._next_file += 1
        return number

    def run(self, generator, name: str = "main"):
        return self.sim.run_process(generator, name=name)

    # ------------------------------------------------------------------

    def build_file(self, chunks: List[bytes]) -> int:
        """Create and populate a file; returns its number."""
        number = self.allocate_file_number()
        client = self.client()

        def body():
            yield from client.create(number)
            yield from client.write_file(number, chunks)

        self.run(body(), name="seq-build")
        return number

    def copy_file(self, src_number: int) -> SequentialCopyResult:
        """The O(n) conventional copy: every block through the client."""
        dst_number = self.allocate_file_number()
        client = self.client()

        def body():
            start = self.sim.now
            yield from client.create(dst_number)
            info = yield from client.info(src_number)
            hint = info.head_addr
            for block in range(info.size_blocks):
                result = yield from client.read(src_number, block, hint=hint)
                hint = result.next_addr
                yield from client.append(dst_number, result.data)
            return SequentialCopyResult(
                blocks=info.size_blocks, elapsed=self.sim.now - start
            )

        return self.run(body(), name="seq-copy")
