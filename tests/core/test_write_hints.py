"""In-place writes carry the block's disk address (S18's address memo).

With the Bridge cache on, the server remembers the disk address in every
EFS result that crosses it and hands it back as the hint of the next
in-place write to that block, so EFS serves the write without walking
the constituent's linked list.  With the cache off nothing is
remembered and the write costs exactly what it always did.  EFS
validates every hint, so a wrong address may cost a fetch but can never
land a write in the wrong block.
"""

import pytest

from repro.core import JobController, ParallelWorker
from repro.efs.fsck import check_system
from repro.elastic.plan import plan_resize
from repro.harness.builders import BridgeSystem
from repro.sim import Timeout, join_all
from repro.storage import FixedLatency

P = 4
BLOCKS = 1024  # 256 per LFS
MID = 513      # slot 1, local block 128: as far from head and tail as it gets


class CountedTimeout(Timeout):
    """Stands in for an EFS server's ``_link_step_charge``."""

    __slots__ = ("count",)

    def __init__(self, delay):
        super().__init__(delay)
        self.count = 0

    def _wait(self, process):
        self.count += 1
        super()._wait(process)


def payload(tag, block):
    return b"%s-%05d|" % (tag, block) * 4


def make_system(latency=1e-4, **kwargs):
    system = BridgeSystem(P, seed=31, disk_latency=FixedLatency(latency),
                          **kwargs)
    for efs in system.efs_servers:
        efs._link_step_charge = CountedTimeout(efs._link_step_charge.delay)
    return system


def build(system, name="f", blocks=BLOCKS, tag=b"old"):
    """Create ``name`` by list writes of 64 blocks; returns the model."""
    client = system.naive_client()
    model = [payload(tag, block) for block in range(blocks)]

    def body():
        yield from client.create(name)
        for base in range(0, blocks, 64):
            yield from client.list_write(
                name, list(enumerate(model[base:base + 64], base)))

    system.run(body())
    return model


def rewrite_cost(system, name, block, data):
    """``(device reads, link steps)`` one in-place write costs its LFS."""
    slot = system.bridge.directory.lookup(name).locate_block(block)[0]
    disk, efs = system.disks[slot], system.efs_servers[slot]
    before = disk.reads, efs._link_step_charge.count
    system.run(system.naive_client().random_write(name, block, data))
    return disk.reads - before[0], efs._link_step_charge.count - before[1]


def assert_matches(system, name, model):
    got = system.run(system.naive_client().read_all(name))
    assert [chunk[:len(want)] for chunk, want in zip(got, model)] == model
    assert len(got) == len(model)
    assert all(report.clean for report in check_system(system))


# ---------------------------------------------------------------------------
# (a) the cost of one in-place write
# ---------------------------------------------------------------------------


def test_rewrite_of_a_seen_block_is_one_fetch_and_no_walk():
    system = make_system(bridge_cache_blocks=16)
    model = build(system)
    system.drop_efs_caches()
    for block in (MID, 2, BLOCKS - 3):
        model[block] = payload(b"new", block)
        reads, links = rewrite_cost(system, "f", block, model[block])
        assert reads <= 1 and links == 0, (block, reads, links)
    assert_matches(system, "f", model)


def test_rewrite_with_the_cache_off_costs_what_it_always_did():
    """Pinned at the parent of the address memo (5fe0a41): a mid-file
    write walks 127 links from the head through 34 track reads; one next
    to the head or tail reads its three tracks."""
    system = make_system()
    model = build(system)
    system.drop_efs_caches()
    costs = {}
    for block in (MID, 2, BLOCKS - 3):
        model[block] = payload(b"new", block)
        costs[block] = rewrite_cost(system, "f", block, model[block])
    assert costs == {MID: (34, 127), 2: (3, 0), BLOCKS - 3: (3, 0)}
    assert_matches(system, "f", model)


def reader_random(system, name, block):
    yield from system.naive_client().random_read(name, block)


def reader_list(system, name, block):
    yield from system.naive_client().list_read(name, [block - 1, block, 7])


def reader_stream(system, name, block):
    """Approach ``block`` sequentially so read-ahead fetches it."""
    client = system.naive_client()
    for near in range(block - 6, block - 2):
        yield from client.random_read(name, near)
    yield Timeout(1.0)


def reader_parallel(system, name, block):
    """A parallel-open job of p workers reads past ``block``."""
    controller = JobController(system.client_node, system.server_target())
    workers = [ParallelWorker(system.client_node, i) for i in range(P)]

    def drain(worker):
        while not (yield from worker.receive()).eof:
            pass

    yield from controller.open(name, [w.port for w in workers])
    drains = [system.client_node.spawn(drain(w)) for w in workers]
    while (yield from controller.read()) == P:
        pass
    yield from controller.close()
    yield join_all(drains)


@pytest.mark.parametrize("reader", [
    reader_random, reader_list, reader_stream, reader_parallel,
])
def test_every_read_path_teaches_the_address(reader):
    blocks = 128 if reader is reader_parallel else BLOCKS
    block = 65 if reader is reader_parallel else MID
    system = make_system(bridge_cache_blocks=16, prefetch_window=1)
    model = build(system, blocks=blocks)
    cache = system.bridge._cache
    cache.invalidate_file("f")  # forget what the build taught
    assert cache.address_of("f", block) is None
    system.run(reader(system, "f", block))
    assert cache.address_of("f", block) is not None
    system.drop_efs_caches()
    model[block] = payload(b"new", block)
    reads, links = rewrite_cost(system, "f", block, model[block])
    assert reads <= 1 and links == 0
    assert_matches(system, "f", model)


def test_parallel_write_teaches_the_address():
    system = make_system(bridge_cache_blocks=16)
    controller = JobController(system.client_node, system.server_target())
    workers = [ParallelWorker(system.client_node, i)
               for i in range(2 * P)]
    model = []

    def body():
        yield from system.naive_client().create("f")
        job = yield from controller.open("f", [w.port for w in workers])
        for row in range(16):
            chunks = [payload(b"old", row * len(workers) + i)
                      for i in range(len(workers))]
            model.extend(chunks)
            for worker, chunk in zip(workers, chunks):
                worker.deposit(job, chunk)
            yield from controller.write()
        yield from controller.close()

    system.run(body())
    system.drop_efs_caches()
    block = len(model) // 2 + 1
    model[block] = payload(b"new", block)
    reads, links = rewrite_cost(system, "f", block, model[block])
    assert reads <= 1 and links == 0
    assert_matches(system, "f", model)


# ---------------------------------------------------------------------------
# (b) staleness is a cost, never a wrong block
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("new_blocks", [96, 400])
def test_delete_and_recreate_forgets_the_old_file(new_blocks):
    system = make_system(bridge_cache_blocks=16)
    build(system, blocks=256)
    cache = system.bridge._cache
    assert sorted(cache._addresses["f"]) == list(range(256))
    system.run(system.naive_client().delete("f"))
    assert "f" not in cache._addresses
    model = build(system, blocks=new_blocks, tag=b"two")
    assert sorted(cache._addresses["f"]) == list(range(new_blocks))
    for block in (65, new_blocks - 1, 0):
        model[block] = payload(b"new", block)
        rewrite_cost(system, "f", block, model[block])
    assert_matches(system, "f", model)


def poison_other_file(system, cache):
    return cache.address_of("g", 21)  # same LFS, another file's block


def poison_freed(system, cache):
    addr = cache.address_of("g", 21)
    system.run(system.naive_client().delete("g"))
    return addr


def poison_directory_region(system, cache):
    return system.efs_servers[1]._first_data_block - 1


def poison_out_of_range(system, cache):
    return system.disks[1].params.capacity_blocks + 5


def poison_same_file_wrong_block(system, cache):
    return cache.address_of("f", 25)


@pytest.mark.parametrize("poison", [
    poison_other_file, poison_freed, poison_directory_region,
    poison_out_of_range, poison_same_file_wrong_block,
])
def test_a_poisoned_memo_still_writes_the_right_block(poison):
    system = make_system(bridge_cache_blocks=16)
    model = build(system, blocks=128)
    other = build(system, name="g", blocks=64, tag=b"gee")
    cache = system.bridge._cache
    block = 21  # slot 1, like every address the poisons pick
    right = cache.address_of("f", block)
    wrong = poison(system, cache)
    assert wrong != right
    cache.remember("f", block, wrong)
    model[block] = payload(b"new", block)
    rewrite_cost(system, "f", block, model[block])
    assert cache.address_of("f", block) == right  # relearnt from the result
    assert_matches(system, "f", model)
    if system.bridge.directory.exists("g"):
        assert_matches(system, "g", other)


def test_a_read_in_flight_across_a_delete_teaches_nothing():
    """The read's transfer is detached, so the server takes the delete
    (71 ms to the unlink) while the LFS still seeks for the read."""
    system = make_system(latency=0.05, bridge_cache_blocks=16)
    build(system, blocks=64)
    system.drop_efs_caches()
    client = system.naive_client()
    cache = system.bridge._cache
    cache.invalidate_file("f")

    def read():
        yield from client.random_read("f", 33)
        return system.bridge.directory.exists("f")

    def body():
        reader = system.client_node.spawn(read())
        yield Timeout(0.005)  # admitted and forwarded
        yield from system.naive_client().delete("f")
        assert not (yield reader.join())  # it finished after the unlink

    system.run(body())
    assert "f" not in cache._addresses


# ---------------------------------------------------------------------------
# (c) migration
# ---------------------------------------------------------------------------


def test_a_migrated_name_is_forgotten_at_the_source_and_relearnt():
    system = BridgeSystem(
        P, seed=23, disk_latency=FixedLatency(1e-4), bridge_server_count=2,
        elastic=4, bridge_cache_blocks=16,
    )
    names = [f"mig-{i:03d}" for i in range(12)]
    models = {name: build(system, name=name, blocks=64, tag=name.encode())
              for name in names}
    ring = system.fabric.ring
    move = plan_resize(ring, ring.with_partitions(4), set(names)).moves[0]
    src, dst = system.bridges[move.src], system.bridges[move.dst]
    assert src._cache.address_of(move.name, 33) is not None
    system.run(system.resize_fabric(4, forward_window=None))
    assert move.name not in src._cache._addresses
    assert dst._cache.address_of(move.name, 33) is None
    client = system.naive_client()
    model = models[move.name]

    def body():
        yield from client.open(move.name)
        for round_tag in (b"one", b"two"):  # before and after it relearns
            for block in (33, 2, 61):
                model[block] = payload(round_tag, block)
                yield from client.random_write(move.name, block, model[block])

    system.run(body())
    assert dst._cache.address_of(move.name, 33) is not None
    assert move.name not in src._cache._addresses
    for name in names:
        assert_matches(system, name, models[name])


def test_a_job_pinned_to_the_source_does_not_regrow_its_memo():
    """After the flip but before the entry moves, the new owner forwards
    ``parallel_open`` back to the source; the job keeps reading there
    after the entry has migrated away."""
    system = BridgeSystem(
        P, seed=23, disk_latency=FixedLatency(5e-4), bridge_server_count=2,
        elastic=4, bridge_cache_blocks=16,
    )
    names = [f"mig-{i:03d}" for i in range(12)]
    for name in names:
        build(system, name=name, blocks=24, tag=name.encode())
    ring = system.fabric.ring
    move = plan_resize(ring, ring.with_partitions(4), set(names)).moves[-1]
    src = system.bridges[move.src]
    controller = JobController(system.client_node, system.server_target())
    worker = ParallelWorker(system.client_node, 0)

    def drain():
        while not (yield from worker.receive()).eof:
            pass

    def body():
        system.client_node.spawn(
            system.resize_fabric(4, moves_per_second=50.0), name="resize")
        yield Timeout(0.001)  # ring flipped, sweep not started
        job = yield from controller.open(move.name, [worker.port])
        reader = system.client_node.spawn(drain())
        reads_after_the_move = 0
        while (yield from controller.read()):
            reads_after_the_move += move.name in src.migrated_out
            yield Timeout(0.1)  # let the sweep move the entry mid-job
        yield from controller.close()
        yield reader.join()
        return job, reads_after_the_move

    job, reads_after_the_move = system.run(body())
    assert job.server_port is src.port
    assert reads_after_the_move > 2
    assert move.name not in src._cache._addresses
