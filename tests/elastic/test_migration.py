"""S22 migration tests: live resizes move files without losing them.

Every test drives a provisioned elastic system (2 active of 4
provisioned servers, or the reverse) through
:meth:`BridgeSystem.resize_fabric` and checks the safety story end to
end: entries land on exactly the partition the new ring names, content
survives byte-for-byte, the double-read forwarding window redirects
requests routed by the old map, removed partitions drain on a shrink,
the throttle actually spaces the sweep, and an elastic-off system never
touches any of it.
"""

import pytest

from repro.core import BridgeClient, JobController, ParallelWorker
from repro.elastic.plan import plan_resize
from repro.elastic.ring import ConsistentHashRing, ModuloRing
from repro.errors import ProcessError
from repro.harness.builders import BridgeSystem
from repro.sim import Timeout, join_all
from repro.storage import FixedLatency

BLOCKS = 4


def make_elastic(servers=2, provisioned=4, seed=23, **kwargs):
    return BridgeSystem(
        4, seed=seed, disk_latency=FixedLatency(0.0005),
        bridge_server_count=servers, elastic=provisioned, **kwargs,
    )


def data(name, block):
    return f"{name}/b{block}|".encode()


def populate(system, names):
    client = system.naive_client()

    def body():
        for name in names:
            yield from client.create(name)
            yield from client.write_all(
                name, [data(name, block) for block in range(BLOCKS)]
            )

    system.run(body())
    return client


def owners(system, names):
    table = {}
    for name in names:
        holders = [
            index for index, bridge in enumerate(system.bridges)
            if bridge.directory.exists(name)
        ]
        table[name] = holders
    return table


def assert_routed_exactly(system, names):
    """Every name lives on exactly the partition the live ring names."""
    for name, holders in owners(system, names).items():
        assert holders == [system.fabric.partition_of(name)], (name, holders)


def read_back(system, client, names):
    def body():
        out = {}
        for name in names:
            out[name] = yield from client.read_all(name)
        return out

    contents = system.run(body())
    for name in names:
        got = [chunk[: len(data(name, b))]
               for b, chunk in enumerate(contents[name])]
        assert got == [data(name, b) for b in range(BLOCKS)], name


NAMES = [f"mig-{i:03d}" for i in range(12)]


# ---------------------------------------------------------------------------
# Grow / shrink move the right entries and lose nothing
# ---------------------------------------------------------------------------


def test_grow_relocates_exactly_the_reassigned_names():
    system = make_elastic(servers=2)
    client = populate(system, NAMES)
    before = owners(system, NAMES)
    report = system.run(system.resize_fabric(4))

    assert report.direction == "grow"
    assert (report.old_partitions, report.new_partitions) == (2, 4)
    assert report.planned > 0
    assert report.moved == report.planned and report.vanished == 0
    assert_routed_exactly(system, NAMES)
    # Names the plan left alone never changed hands.
    moved = {m.name for m in report.plan.moves}
    for name in NAMES:
        if name not in moved:
            assert owners(system, NAMES)[name] == before[name]
    read_back(system, client, NAMES)


def test_shrink_drains_the_removed_partitions():
    system = make_elastic(servers=4)
    client = populate(system, NAMES)
    report = system.run(system.resize_fabric(2))

    assert report.direction == "shrink"
    assert report.moved == report.planned > 0
    assert_routed_exactly(system, NAMES)
    for bridge in system.bridges[2:]:
        assert bridge.directory.names() == []
    read_back(system, client, NAMES)


def test_grow_then_shrink_round_trips_the_namespace():
    system = make_elastic(servers=2)
    client = populate(system, NAMES)
    before = owners(system, NAMES)
    system.run(system.resize_fabric(4))
    system.run(system.resize_fabric(2))
    # Same seed, same size -> same ring -> every name back home.
    assert owners(system, NAMES) == before
    read_back(system, client, NAMES)


def test_mid_sweep_delete_counts_as_vanished_not_lost():
    """A name deleted after the plan was cut but before its move runs
    has nothing left to migrate — the sweep records it as vanished and
    carries on."""
    system = make_elastic(servers=2)
    client = populate(system, NAMES)
    # The plan is deterministic (sorted names on the reassigned arcs),
    # so we can predict the sweep's last move and delete it first.
    ring = system.fabric.ring
    doomed = plan_resize(ring, ring.with_partitions(4), NAMES).moves[-1].name
    box = []

    def resizer():
        report = yield from system.resize_fabric(4, moves_per_second=10.0)
        box.append(report)

    def body():
        system.client_node.spawn(resizer(), name="resize")
        yield Timeout(0.01)  # let the plan+flip happen, then delete
        yield from client.delete(doomed)

    system.run(body())
    report = box[0]
    assert report.vanished == 1, report
    assert report.moved == report.planned - 1
    survivors = [name for name in NAMES if name != doomed]
    assert not any(owners(system, [doomed])[doomed])
    assert_routed_exactly(system, survivors)
    read_back(system, client, survivors)


# ---------------------------------------------------------------------------
# The double-read forwarding window
# ---------------------------------------------------------------------------


def test_old_route_is_forwarded_while_the_window_is_open():
    """A request sent to a name's *old* owner (a client still routing by
    the old ring) is redirected by the base server loop, not failed."""
    system = make_elastic(servers=2)
    populate(system, NAMES)
    old_ring = system.fabric.ring
    report = system.run(system.resize_fabric(4, forward_window=None))

    move = report.plan.moves[0]
    stale = BridgeClient(system.client_node,
                         system.bridges[old_ring.partition_of(move.name)].port)

    def body():
        return (yield from stale.read_all(move.name))

    chunks = system.run(body())
    assert chunks[0][: len(data(move.name, 0))] == data(move.name, 0)
    assert system.bridges[move.src].forwarded > 0


def test_forward_window_retires_the_redirects():
    system = make_elastic(servers=2)
    populate(system, NAMES)
    report = system.run(system.resize_fabric(4, forward_window=0.25))
    assert report.planned > 0
    for bridge in system.bridges:
        assert bridge.forward_to == {}


def test_reads_survive_a_resize_in_flight():
    """Clients hammering the fabric while the ring flips and the sweep
    runs never see a failure or a stale byte."""
    system = make_elastic(servers=2)
    populate(system, NAMES)

    def reader(name):
        # One client per reader: a client is one reply mailbox, so
        # concurrent processes must not share one.
        client = system.naive_client()
        for _ in range(6):
            chunks = yield from client.read_all(name)
            for block, chunk in enumerate(chunks):
                assert chunk[: len(data(name, block))] == data(name, block)
            yield Timeout(0.02)

    def driver():
        for name in NAMES:
            system.client_node.spawn(reader(name), name=f"reader-{name}")
        report = yield from system.resize_fabric(4, moves_per_second=100.0)
        return report

    report = system.run(driver())
    assert report.moved == report.planned
    assert_routed_exactly(system, NAMES)


# ---------------------------------------------------------------------------
# Throttle and guard rails
# ---------------------------------------------------------------------------


def test_throttle_spaces_the_sweep():
    system = make_elastic(servers=2)
    populate(system, NAMES)
    report = system.run(
        system.resize_fabric(4, moves_per_second=20.0, forward_window=None)
    )
    assert report.moves_per_second == 20.0
    assert report.duration >= report.planned * (1.0 / 20.0)


def test_resize_beyond_provisioning_is_rejected():
    system = make_elastic(servers=2, provisioned=4)
    populate(system, NAMES[:2])
    with pytest.raises(ProcessError, match="provisioned fabric"):
        system.run(system.resize_fabric(5))


def test_elastic_off_keeps_the_seed_routing():
    system = BridgeSystem(
        4, seed=23, disk_latency=FixedLatency(0.0005), bridge_server_count=2,
    )
    assert system.elastic is False
    assert isinstance(system.fabric.ring, ModuloRing)
    assert len(system.bridges) == 2  # nothing over-provisioned
    for bridge in system.bridges:
        assert bridge.forward_to == {}


def test_elastic_system_routes_by_consistent_hash():
    system = make_elastic(servers=2, seed=23)
    ring = system.fabric.ring
    assert isinstance(ring, ConsistentHashRing)
    assert (ring.partitions, ring.seed) == (2, 23)
    populate(system, NAMES)
    assert_routed_exactly(system, NAMES)


def test_parallel_job_follows_a_forwarded_open():
    """A ``parallel_open`` redirected through the forwarding window
    creates its job on the forwarded-to server; the controller must
    address the job's reads and close there (``JobInfo.server_port``),
    not at the port it first sent to."""
    system = make_elastic(servers=2)
    populate(system, NAMES)
    old_ring = system.fabric.ring
    report = system.run(system.resize_fabric(4, forward_window=None))
    move = report.plan.moves[0]
    stale_port = system.bridges[old_ring.partition_of(move.name)].port
    controller = JobController(system.client_node, stale_port)
    workers = [ParallelWorker(system.client_node, index) for index in range(2)]
    received = []

    def worker_body(worker):
        while True:
            delivery = yield from worker.receive()
            if delivery.eof:
                return
            received.append((delivery.block_number, delivery.data))

    def body():
        # Refresh the new owner's cached size (Open is the hint refresh).
        yield from system.naive_client().open(move.name)
        job = yield from controller.open(move.name, [w.port for w in workers])
        processes = [system.client_node.spawn(worker_body(w)) for w in workers]
        delivered = 0
        while True:
            count = yield from controller.read()
            delivered += count
            if count < len(workers):
                break
        yield from controller.close()
        yield join_all(processes)
        return job, delivered

    job, delivered = system.run(body())
    assert system.bridges[move.src].forwarded > 0
    assert job.server_port is system.bridges[move.dst].port
    assert delivered == BLOCKS
    assert [(block, chunk[: len(data(move.name, block))])
            for block, chunk in sorted(received)] == [
        (block, data(move.name, block)) for block in range(BLOCKS)
    ]
    assert system.bridges[move.dst]._jobs == {}


def test_parallel_job_opened_before_its_name_lands_stays_with_the_source():
    """The other direction: after the flip but before a name's entry has
    moved, the *new* owner forwards its ``parallel_open`` back to the
    source.  The job lives there, so that is where its reads and close
    must go — even though the entry migrates away mid-job."""
    system = make_elastic(servers=2)
    populate(system, NAMES)
    ring = system.fabric.ring
    move = plan_resize(ring, ring.with_partitions(4), set(NAMES)).moves[-1]
    controller = JobController(system.client_node, system.server_target())
    worker = ParallelWorker(system.client_node, 0)

    def worker_body():
        blocks = []
        while True:
            delivery = yield from worker.receive()
            if delivery.eof:
                return blocks
            blocks.append(delivery.block_number)

    def body():
        yield from system.naive_client().open(move.name)
        system.client_node.spawn(
            system.resize_fabric(4, moves_per_second=50.0), name="resize"
        )
        yield Timeout(0.001)  # ring flipped, sweep not started
        assert system.fabric.partition_of(move.name) == move.dst
        job = yield from controller.open(move.name, [worker.port])
        reader = system.client_node.spawn(worker_body())
        while (yield from controller.read()):
            yield Timeout(0.1)  # let the sweep move the entry mid-job
        yield from controller.close()
        return job, (yield reader.join())

    job, blocks = system.run(body())
    assert job.server_port is system.bridges[move.src].port
    assert blocks == list(range(BLOCKS))
    assert system.bridges[move.dst].directory.exists(move.name)
    assert all(bridge._jobs == {} for bridge in system.bridges)
