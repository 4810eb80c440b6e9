"""Shared fixtures for EFS tests: a single-node machine with one LFS."""

import pytest

from repro.config import BLOCK_SIZE, DEFAULT_CONFIG
from repro.efs import EFSClient, EFSServer
from repro.errors import EFSFileNotFoundError
from repro.machine import Machine
from repro.sim import Simulator
from repro.storage import DRIVER_KINDS, make_driver, normalize_driver_spec


class EFSHarness:
    """One node, one disk, one EFS server, one client on the same node.

    ``storage`` is any S25 driver spec (``None`` = the ram reference
    driver); the driver-parameterized suites pass ``"hostfs"`` /
    ``"object"`` specs to run the same semantics against every backend.
    """

    def __init__(self, capacity_blocks=2048, access_time=0.015, config=None,
                 storage=None):
        self.config = config or DEFAULT_CONFIG
        self.sim = Simulator(seed=13)
        self.machine = Machine(self.sim, 1, config=self.config)
        self.node = self.machine.node(0)
        spec = normalize_driver_spec(storage)
        if "access_time" in DRIVER_KINDS[spec["kind"]][1]:
            spec = {"access_time": access_time, **spec}
        self.disk = make_driver(
            spec, self.sim, name="lfs-disk", capacity_blocks=capacity_blocks,
        )
        self.server = EFSServer(self.node, self.disk, self.config)
        self.client = EFSClient(self.node, self.server.port)

    def run(self, generator):
        return self.sim.run_process(generator)


def exists(client, file_number):
    """Whether the LFS holds ``file_number``: an info request that may
    miss (generator, like the client's own methods)."""
    try:
        yield from client.info(file_number)
    except EFSFileNotFoundError:
        return False
    return True


def write_blocks(client, file_number, writes, hint=None):
    """One batched ``write_blocks`` request of ``(block_number, data)``
    pairs, charged the full payload on the wire (as the Bridge Server
    sends it)."""
    writes = list(writes)
    return client._rpc.call(
        client.port, "write_blocks", size=BLOCK_SIZE * len(writes),
        file_number=file_number, writes=writes, hint=hint,
    )


@pytest.fixture
def efs():
    return EFSHarness()


@pytest.fixture
def fast_efs():
    """Near-zero disk latency: for pure-semantics tests that do many ops."""
    return EFSHarness(access_time=0.0001)


def assert_memos_fresh(server):
    """Every cached block's memo is absent or equals a fresh decode of
    the raw bytes beside it (buckets by the directory's decoder, file
    blocks by ``unpack_block``)."""
    from repro.efs.directory import _unpack_bucket
    from repro.efs.layout import unpack_block

    first_data = server.directory.first_data_block
    for address, entry in server.cache._entries.items():
        if entry.decoded is None:
            continue
        decode = unpack_block if address >= first_data else _unpack_bucket
        assert entry.decoded == decode(entry.raw), f"stale memo at {address}"
