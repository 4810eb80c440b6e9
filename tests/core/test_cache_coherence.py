"""S18 coherence: the cached system is observationally identical.

The Bridge block cache plus read-ahead may change *when* things happen,
never *what* a reader sees.  These tests drive randomized interleavings
of sequential/random/list reads and writes through the Bridge twice —
once with the cache+prefetcher on, once with the stock configuration —
and require byte-identical observations, byte-identical final file
contents, and fsck-clean LFS state on both sides.  Parity-protected
degraded reads (which bypass the Bridge cache by design) get the same
treatment.
"""

import random

import pytest

from repro.efs.fsck import check_system
from repro.harness.builders import BridgeSystem, paper_system
from repro.redundancy import FaultInjector
from repro.storage import FixedLatency
from repro.workloads import pattern_chunks


def block_payload(tag, index):
    return (b"%s-%06d|" % (tag, index)) * 2


def make_script(seed, ops=120, max_blocks=48):
    """A reproducible op sequence; writes reference only valid targets."""
    rng = random.Random(seed)
    script = []
    size = 0
    serial = 0
    for _ in range(ops):
        choices = ["seq_write"]
        if size:
            choices += ["seq_read", "random_read", "random_write",
                        "list_read", "list_write", "reopen"]
        op = rng.choice(choices)
        if op == "seq_write" and size < max_blocks:
            script.append(("seq_write", block_payload(b"W", serial)))
            serial += 1
            size += 1
        elif op == "random_write":
            block = rng.randrange(size)
            script.append(("random_write", block, block_payload(b"R", serial)))
            serial += 1
        elif op == "random_read":
            script.append(("random_read", rng.randrange(size)))
        elif op == "seq_read":
            script.append(("seq_read",))
        elif op == "list_read":
            count = rng.randint(1, min(6, size))
            blocks = rng.sample(range(size), count)
            script.append(("list_read", blocks))
        elif op == "list_write":
            count = rng.randint(1, min(4, size))
            targets = rng.sample(range(size), count)
            writes = []
            for block in targets:
                writes.append((block, block_payload(b"L", serial)))
                serial += 1
            script.append(("list_write", writes))
        elif op == "reopen":
            script.append(("reopen",))
    return script


def run_script(script, p=4, seed=5, **kwargs):
    """Apply the script through one Bridge; returns (observations, final
    contents, system)."""
    system = BridgeSystem(
        p, seed=seed, disk_latency=FixedLatency(0.0005), **kwargs
    )
    client = system.naive_client()
    observations = []

    def body():
        yield from client.create("f")
        for step in script:
            op = step[0]
            if op == "seq_write":
                yield from client.seq_write("f", step[1])
            elif op == "random_write":
                yield from client.random_write("f", step[1], step[2])
            elif op == "list_write":
                yield from client.list_write("f", step[1])
            elif op == "seq_read":
                number, data = yield from client.seq_read("f")
                observations.append(("seq", number, data))
            elif op == "random_read":
                data = yield from client.random_read("f", step[1])
                observations.append(("random", step[1], data))
            elif op == "list_read":
                data = yield from client.list_read("f", step[1])
                observations.append(("list", tuple(step[1]), tuple(data)))
            elif op == "reopen":
                yield from client.open("f")
        final = yield from client.read_all("f")
        return final

    final = system.run(body(), name="coherence-script")
    return observations, final, system


@pytest.mark.parametrize("script_seed", [1, 2, 3, 4, 5])
def test_randomized_interleavings_cache_on_equals_off(script_seed):
    script = make_script(script_seed)
    base_obs, base_final, base_system = run_script(script)
    cached_obs, cached_final, cached_system = run_script(
        script, prefetch_window=2
    )
    assert cached_obs == base_obs
    assert cached_final == base_final
    assert all(report.clean for report in check_system(base_system))
    assert all(report.clean for report in check_system(cached_system))
    stats = cached_system.bridge.bridge_cache_stats()
    # The script must actually exercise the protocol, not dodge it.
    assert stats["invalidations"] > 0 or stats["hits"] > 0


def test_heavy_write_interleaving_never_serves_stale_bytes():
    # Alternating write/read on the same blocks: every read must see the
    # latest write even while prefetched data for the old contents is in
    # flight.
    def run(**kwargs):
        system = BridgeSystem(
            4, seed=9, disk_latency=FixedLatency(0.0005), **kwargs
        )
        client = system.naive_client()
        log = []

        def body():
            yield from client.create("f")
            for index in range(24):
                yield from client.seq_write("f", block_payload(b"A", index))
            yield from client.open("f")
            for round_number in range(4):
                for block in range(24):
                    payload = block_payload(
                        b"B%d" % round_number, block
                    )
                    yield from client.random_write("f", block, payload)
                    data = yield from client.random_read("f", block)
                    log.append(data)
                    assert data[: len(payload)] == payload
            return log

        return system.run(body(), name="stale-check"), system

    base_log, _ = run()
    cached_log, cached_system = run(prefetch_window=1, bridge_cache_blocks=8)
    assert cached_log == base_log
    assert cached_system.bridge.bridge_cache_stats()["invalidations"] > 0


def test_delete_and_recreate_does_not_resurrect_cached_blocks():
    def run(**kwargs):
        system = BridgeSystem(
            4, seed=17, disk_latency=FixedLatency(0.0005), **kwargs
        )
        client = system.naive_client()

        def body():
            yield from client.create("f")
            for index in range(8):
                yield from client.seq_write("f", block_payload(b"OLD", index))
            first = yield from client.read_all("f")
            yield from client.delete("f")
            yield from client.create("f")
            for index in range(8):
                yield from client.seq_write("f", block_payload(b"NEW", index))
            second = yield from client.read_all("f")
            return first, second

        return system.run(body(), name="recreate")

    base_first, base_second = run()
    cached_first, cached_second = run(prefetch_window=1)
    assert cached_first == base_first
    assert cached_second == base_second
    assert all(c.startswith(b"NEW") for c in cached_second)


def test_degraded_parity_reads_unaffected_by_bridge_cache():
    def run(**kwargs):
        system = paper_system(4, seed=23, redundancy="parity", **kwargs)
        rfile = system.redundant_file("protected")
        chunks = pattern_chunks(16)

        def setup():
            yield from rfile.create()
            yield from rfile.write_all(chunks)

        system.run(setup(), name="setup")

        def read_all():
            read_chunks, _stats = yield from rfile.read_all()
            return read_chunks

        healthy = system.run(read_all(), name="healthy")
        for efs in system.efs_servers:
            system.run(efs.cache.flush(), name="flush")
            efs.cache.invalidate_all()
        FaultInjector(system).fail_slot(1)
        degraded = system.run(read_all(), name="degraded")
        return healthy, degraded, system

    base_healthy, base_degraded, _ = run()
    cached_healthy, cached_degraded, cached_system = run(prefetch_window=2)
    assert cached_healthy == base_healthy
    assert cached_degraded == base_degraded
    assert base_degraded == base_healthy
    # Parity traffic is tool-style (direct to the LFS): the Bridge cache
    # must never have seen any of it.
    stats = cached_system.bridge.bridge_cache_stats()
    assert stats["hits"] == 0 and stats["misses"] == 0
