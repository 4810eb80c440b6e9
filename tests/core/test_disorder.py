"""Tests for disordered files and off-line reorganization (E18)."""

import pytest

from repro.core.disorder import reorganize, scatter_quality
from repro.errors import BridgeBadRequestError
from tests.core.conftest import make_system


def data_for(index):
    return f"scatter-{index:04d}|".encode() * 2


def build_disordered(system, name="messy", blocks=16):
    client = system.naive_client()

    def body():
        yield from client.create(name, disordered=True)
        for index in range(blocks):
            yield from client.seq_write(name, data_for(index))
        return (yield from client.get_block_map(name))

    block_map = system.run(body())
    return client, block_map


def test_disordered_roundtrip_preserves_order():
    system = make_system(4)
    client, _map = build_disordered(system, blocks=16)

    def body():
        return (yield from client.read_all("messy"))

    chunks = system.run(body())
    assert len(chunks) == 16
    for index, chunk in enumerate(chunks):
        assert chunk.startswith(data_for(index))


def test_disordered_map_is_actually_scattered():
    system = make_system(4)
    _client, block_map = build_disordered(system, blocks=64)
    slots = [slot for slot, _local in block_map]
    # not the round-robin pattern
    assert slots != [i % 4 for i in range(64)]
    # but every slot is used
    assert set(slots) == {0, 1, 2, 3}
    # per-slot local numbers are dense 0..k-1
    for slot in range(4):
        locals_on_slot = [l for s, l in block_map if s == slot]
        assert locals_on_slot == list(range(len(locals_on_slot)))
    # and windows rarely hit all 4 distinct slots
    assert scatter_quality(block_map, 4) < 0.9


def test_disordered_random_read():
    system = make_system(4)
    client, _map = build_disordered(system, blocks=12)

    def body():
        a = yield from client.random_read("messy", 7)
        b = yield from client.random_read("messy", 0)
        return a, b

    a, b = system.run(body())
    assert a.startswith(data_for(7))
    assert b.startswith(data_for(0))


def test_disordered_random_write_in_place():
    system = make_system(4)
    client, _map = build_disordered(system, blocks=8)

    def body():
        yield from client.random_write("messy", 3, b"PATCH")
        return (yield from client.read_all("messy"))

    chunks = system.run(body())
    assert chunks[3].startswith(b"PATCH")
    assert chunks[2].startswith(data_for(2))


def test_disordered_open_resyncs():
    system = make_system(4)
    client, _map = build_disordered(system, blocks=10)

    def body():
        opened = yield from client.open("messy")
        return opened

    opened = system.run(body())
    assert opened.total_blocks == 10


def test_block_map_rejected_for_strict_files():
    system = make_system(4)
    client = system.naive_client()

    def body():
        yield from client.create("strict")
        try:
            yield from client.get_block_map("strict")
        except BridgeBadRequestError:
            return "caught"

    assert system.run(body()) == "caught"


def test_reorganize_restores_strict_interleaving():
    system = make_system(4)
    client, _map = build_disordered(system, blocks=16)

    def body():
        result = yield from reorganize(client, "messy", "tidy")
        opened = yield from client.open("tidy")
        chunks = yield from client.read_all("tidy")
        return result, opened, chunks

    result, opened, chunks = system.run(body())
    assert result.blocks == 16
    # contents preserved in global order
    for index, chunk in enumerate(chunks):
        assert chunk.startswith(data_for(index))
    # strictly interleaved again: perfectly balanced constituents
    assert [c.size_blocks for c in opened.constituents] == [4, 4, 4, 4]
    # the old file is gone
    assert system.bridge.directory.names() == ["tidy"]


def test_scatter_quality_bounds():
    # perfect round robin
    perfect = [(i % 4, i // 4) for i in range(16)]
    assert scatter_quality(perfect, 4) == 1.0
    # everything on one slot
    awful = [(0, i) for i in range(16)]
    assert scatter_quality(awful, 4) == 0.0
    # degenerate inputs
    assert scatter_quality([], 4) == 0.0
    assert scatter_quality(perfect, 0) == 0.0


def test_disordered_sequential_read_slower_than_strict():
    """The paper's price: scattering loses per-slot sequential locality,
    so hint-threading breaks and reads walk the lists."""
    from repro.harness.builders import BridgeSystem

    def seq_read_time(disordered):
        system = BridgeSystem(4, seed=55)  # real 15 ms disks
        client = system.naive_client()
        blocks = 96

        def setup():
            yield from client.create("f", disordered=disordered)
            for index in range(blocks):
                yield from client.seq_write("f", data_for(index))

        system.run(setup())
        # cold caches: reads must pay the real device/layout costs
        for efs in system.efs_servers:
            system.run(efs.cache.flush(), name="flush")
            efs.cache.invalidate_all()

        def body():
            yield from client.open("f")
            start = system.sim.now
            while True:
                block, _data = yield from client.seq_read("f")
                if block is None:
                    break
            return system.sim.now - start

        return system.run(body())

    strict = seq_read_time(False)
    messy = seq_read_time(True)
    assert messy > strict
