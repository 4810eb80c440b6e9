"""Disk striping baseline (Salem & Garcia-Molina, paper section 2).

"Conventional devices are joined logically at the level of the file
system software.  Consecutive blocks are located on different disk
drives, so the file system can initiate I/O operations on several blocks
in parallel.  Striped files are not limited by disk or channel speed,
but...  they are limited by the throughput of the file system software."

Model: one file-system *process* on one node owns ``d`` disks.  Batch
reads/writes fan out to the disks concurrently, but every block still
passes through the single server (per-block CPU) and across the single
node's link to the client — the two serialization points Bridge removes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import BLOCK_SIZE, DEFAULT_CONFIG, SystemConfig
from repro.errors import EFSFileExistsError, EFSFileNotFoundError
from repro.machine import Client, Machine, Response, Server
from repro.sim import Simulator, Timeout
from repro.storage import BlockStoreABC, make_driver


class _StripedFile:
    __slots__ = ("name", "size", "placements")

    def __init__(self, name: str) -> None:
        self.name = name
        self.size = 0
        self.placements: List[int] = []  # per-block physical address


class StripedServer(Server):
    """The single FS process fronting a stripe set of ``d`` disks."""

    def __init__(self, node, disks: List[BlockStoreABC],
                 config: SystemConfig) -> None:
        super().__init__(node, "striped-fs")
        if not disks:
            raise ValueError("striping needs at least one disk")
        self.disks = disks
        self.config = config
        self.files: Dict[str, _StripedFile] = {}
        self._next_addr = [0] * len(disks)

    # ------------------------------------------------------------------

    def op_create(self, name):
        yield Timeout(self.config.cpu.efs_request)
        if name in self.files:
            raise EFSFileExistsError(f"striped file {name!r} exists")
        self.files[name] = _StripedFile(name)
        return name

    def op_append_batch(self, name, blocks):
        """Write a batch: one block per disk in flight at a time."""
        stripe = self._file(name)
        d = len(self.disks)
        for group_start in range(0, len(blocks), d):
            group = blocks[group_start : group_start + d]
            collectors = []
            for data in group:
                yield Timeout(self.config.cpu.efs_request)  # serial software
                disk_index = stripe.size % d
                address = self._next_addr[disk_index]
                self._next_addr[disk_index] += 1
                stripe.placements.append(address)
                stripe.size += 1
                collectors.append(
                    self._spawn_io(self.disks[disk_index].write(address, data))
                )
            for process in collectors:
                yield process.join()
        return stripe.size

    def op_read_batch(self, name, start, count):
        """Read ``count`` consecutive blocks starting at ``start``."""
        stripe = self._file(name)
        end = min(start + count, stripe.size)
        datas: List[Optional[bytes]] = [None] * max(0, end - start)
        d = len(self.disks)
        for group_start in range(start, end, d):
            group = range(group_start, min(group_start + d, end))
            collectors = []
            for block in group:
                yield Timeout(self.config.cpu.efs_request)  # serial software
                disk_index = block % d
                address = stripe.placements[block]
                collectors.append(
                    (block, self._spawn_io(self.disks[disk_index].read(address)))
                )
            for block, process in collectors:
                data = yield process.join()
                datas[block - start] = data
        payload = [data for data in datas if data is not None]
        return Response(value=payload, size=len(payload) * BLOCK_SIZE)

    def op_info(self, name):
        yield Timeout(self.config.cpu.efs_request)
        return self._file(name).size

    # ------------------------------------------------------------------

    def _file(self, name: str) -> _StripedFile:
        stripe = self.files.get(name)
        if stripe is None:
            raise EFSFileNotFoundError(f"striped file {name!r} not found")
        return stripe

    def _spawn_io(self, generator):
        return self.node.machine.sim.spawn(generator, name="stripe-io")


class StripedSystem:
    """Client node + FS node with ``d`` striped disks."""

    def __init__(self, disk_count: int, seed: int = 0) -> None:
        self.config = DEFAULT_CONFIG
        self.sim = Simulator(seed=seed)
        self.machine = Machine(self.sim, 2, config=self.config)
        self.fs_node = self.machine.node(0)
        self.client_node = self.machine.node(1)
        self.disks = [make_driver(None, self.sim, name=f"stripe{i}")
                      for i in range(disk_count)]
        self.server = StripedServer(self.fs_node, self.disks, self.config)

    def run(self, generator, name: str = "main"):
        return self.sim.run_process(generator, name=name)

    def build_file(self, name: str, chunks: List[bytes], batch: int = 64) -> None:
        rpc = Client(self.client_node, "stripe-client")

        def body():
            yield from rpc.call(self.server.port, "create", name=name)
            for start in range(0, len(chunks), batch):
                yield from rpc.call(
                    self.server.port,
                    "append_batch",
                    size=BLOCK_SIZE * len(chunks[start : start + batch]),
                    name=name,
                    blocks=chunks[start : start + batch],
                )

        self.run(body(), name="stripe-build")

    def copy_file(self, src: str, dst: str, batch: int = 64):
        """Copy through the client, batch by batch (the striped-FS
        equivalent of the conventional copy: every block crosses to the
        client and back, and every block pays the single FS process).

        Returns ``(blocks, elapsed)``.
        """
        rpc = Client(self.client_node, "stripe-copy")

        def body():
            size = yield from rpc.call(self.server.port, "info", name=src)
            start_time = self.sim.now
            yield from rpc.call(self.server.port, "create", name=dst)
            position = 0
            copied = 0
            while position < size:
                data = yield from rpc.call(
                    self.server.port, "read_batch",
                    name=src, start=position, count=batch,
                )
                if data:
                    yield from rpc.call(
                        self.server.port, "append_batch",
                        size=BLOCK_SIZE * len(data),
                        name=dst, blocks=data,
                    )
                position += batch
                copied += len(data)
            return copied, self.sim.now - start_time

        return self.run(body(), name="stripe-copy")
