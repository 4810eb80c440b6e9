"""Tests for the hash-partitioned distributed Bridge Server (E17)."""

import pytest

from repro.core import BridgeClient
from repro.core.partitioned import (
    PartitionedBridge,
    PartitionedClient,
    client_for,
)
from repro.elastic.ring import ModuloRing
from repro.errors import BridgeFileNotFoundError
from repro.harness.builders import BridgeSystem
from repro.storage import FixedLatency


def make_system(servers=2, p=4, seed=67):
    return BridgeSystem(
        p,
        seed=seed,
        disk_latency=FixedLatency(0.0005),
        bridge_server_count=servers,
    )


def test_routing_deterministic_and_in_range():
    ring = ModuloRing(4)
    for name in ("a", "b", "some/longer/name", ""):
        index = ring.partition_of(name)
        assert 0 <= index < 4
        assert index == ring.partition_of(name)


def test_ring_rejects_zero_partitions():
    with pytest.raises(ValueError):
        ModuloRing(0)


def test_partitioned_bridge_requires_servers():
    with pytest.raises(ValueError):
        PartitionedBridge([])


def test_builder_creates_requested_servers():
    system = make_system(servers=3)
    assert len(system.bridges) == 3
    assert system.bridge is system.bridges[0]
    assert len({b.node.index for b in system.bridges}) == 3


def test_files_distribute_across_partitions():
    system = make_system(servers=4)
    client = system.partitioned_client()
    names = [f"file-{i}" for i in range(32)]

    def body():
        for name in names:
            yield from client.create(name)
            yield from client.seq_write(name, name.encode())

    system.run(body())
    counts = [len(b.directory.names()) for b in system.bridges]
    assert sum(counts) == 32
    assert all(count > 0 for count in counts)  # every partition used


def test_partitioned_roundtrip():
    system = make_system(servers=2)
    client = system.partitioned_client()

    def body():
        out = {}
        for name in ("alpha", "beta", "gamma"):
            yield from client.create(name)
            yield from client.seq_write(name, name.encode())
            chunks = yield from client.read_all(name)
            out[name] = chunks[0]
        return out

    out = system.run(body())
    for name, chunk in out.items():
        assert chunk.startswith(name.encode())


def test_partitioned_delete_routes_correctly():
    system = make_system(servers=3)
    client = system.partitioned_client()

    def body():
        yield from client.create("victim")
        yield from client.seq_write("victim", b"x")
        freed = yield from client.delete("victim")
        try:
            yield from client.open("victim")
        except BridgeFileNotFoundError:
            return freed, "gone"

    assert system.run(body()) == (1, "gone")


def test_partition_isolation():
    """A name only exists in its own partition."""
    system = make_system(servers=2)
    client = system.partitioned_client()

    def body():
        yield from client.create("only-here")

    system.run(body())
    owner = system.fabric.partition_of("only-here")
    assert system.bridges[owner].directory.exists("only-here")
    assert not system.bridges[1 - owner].directory.exists("only-here")


def test_partitioned_get_info():
    system = make_system(servers=2)
    client = system.partitioned_client()

    def body():
        return (yield from client.get_info())

    info = system.run(body())
    assert info.width == 4


def test_many_clients_scale_with_partitions():
    """The paper's bottleneck remark: concurrent naive traffic gets
    faster when the central server becomes a distributed collection."""

    def makespan(servers):
        system = BridgeSystem(
            4, seed=68, bridge_server_count=servers
        )  # real 15 ms disks
        client_count = 8
        blocks = 12
        clients = [system.partitioned_client() for _ in range(client_count)]

        def worker(index, client):
            name = f"c{index}"
            yield from client.create(name)
            for b in range(blocks):
                yield from client.seq_write(name, b"w" * 64)
            yield from client.open(name)
            while True:
                block, _ = yield from client.seq_read(name)
                if block is None:
                    return

        processes = [
            system.client_node.spawn(worker(i, c), name=f"client{i}")
            for i, c in enumerate(clients)
        ]
        system.sim.run()
        assert all(p.done for p in processes)
        return system.sim.now

    single = makespan(1)
    quad = makespan(4)
    assert quad < single * 0.7


# ---------------------------------------------------------------------------
# The routing override: RPC counts per op, by routing rule
# ---------------------------------------------------------------------------


def served(system):
    return [bridge.requests_served for bridge in system.bridges]


def delta(system, body):
    before = served(system)
    result = system.run(body())
    return result, [now - then for now, then in zip(served(system), before)]


@pytest.mark.parametrize("op", ["open", "stat", "seq_read", "get_block_map",
                                "delete"])
def test_name_rule_costs_one_rpc_on_the_owner_only(op):
    system = make_system(servers=4)
    client = system.partitioned_client()

    def setup():
        yield from client.create("routed", disordered=True)
        yield from client.seq_write("routed", b"x")

    system.run(setup())
    _result, counts = delta(system, lambda: getattr(client, op)("routed"))
    expected = [0] * 4
    expected[system.fabric.partition_of("routed")] = 1
    assert counts == expected


def test_all_rule_costs_one_rpc_per_active_partition():
    system = make_system(servers=4)
    client = system.partitioned_client()
    info, counts = delta(system, client.get_info)
    assert info.server_ports == system.fabric.ports
    assert counts == [1, 1, 1, 1]


def test_names_rule_costs_one_rpc_per_touched_partition():
    system = make_system(servers=4)
    client = system.partitioned_client()
    names = [f"n{i}" for i in range(12)]
    touched = {system.fabric.partition_of(name) for name in names}
    outcomes, counts = delta(system, lambda: client.mcreate(names, width=1))
    assert [o.name for o in outcomes] == names and all(o.ok for o in outcomes)
    assert counts == [1 if p in touched else 0 for p in range(4)]


def test_job_rule_reaches_exactly_the_server_holding_the_job():
    """A ``job``-routed op through the fabric client goes to
    ``JobInfo.server_port`` and nowhere else."""
    system = make_system(servers=4)
    client = system.partitioned_client()
    system.run(client.create("jobfile"))
    owner = system.fabric.partition_of("jobfile")
    worker = system.client_node.port("w0")

    job, counts = delta(system, lambda: client._call(
        "parallel_open", name="jobfile", worker_ports=[worker]))
    assert job.server_port is system.bridges[owner].port
    expected = [0] * 4
    expected[owner] = 1
    assert counts == expected

    _result, counts = delta(
        system, lambda: client._call("parallel_close", job=job))
    assert counts == expected
    assert not system.bridges[owner]._jobs


def test_client_for_picks_the_client_by_what_it_is_pointed_at():
    system = make_system(servers=2)
    node = system.client_node
    assert type(client_for(node, system.fabric)) is PartitionedClient
    assert type(client_for(node, system.bridge.port)) is BridgeClient
    with pytest.raises(TypeError):
        client_for(node, system.bridge)  # a server is neither


def test_fabric_refuses_a_ring_wider_than_its_servers():
    system = make_system(servers=2)
    with pytest.raises(ValueError, match="only 2 servers are provisioned"):
        system.fabric.set_ring(ModuloRing(3))
