"""S18: the Bridge-server block cache and striped read-ahead pipeline.

Covers the acceptance criteria of the pipeline: >= 3x on the p = 8
sequential read with byte-identical results, exact reproduction of the
closed-form hit latency in the steady state, seed-identical behavior
with the cache off, and the cache/prefetcher unit semantics.
"""

import collections

import pytest

from repro.analysis.models import (
    pipelined_hit_seconds,
    pipelined_read_seconds,
)
from repro.core import BridgeBlockCache, SequentialDetector
from repro.harness.builders import paper_system
from repro.workloads import build_file, pattern_chunks


def stream_file(system, name, count=None):
    """Open + timed sequential read loop; returns (elapsed, chunks)."""
    client = system.naive_client()

    def body():
        yield from client.open(name)
        start = system.sim.now
        chunks = []
        while True:
            block_number, data = yield from client.seq_read(name)
            if block_number is None:
                break
            chunks.append(data)
            if count is not None and len(chunks) >= count:
                break
        return system.sim.now - start, chunks

    return system.run(body(), name="stream")


def build_and_stream(p, blocks, seed=7, **kwargs):
    system = paper_system(p, seed=seed, **kwargs)
    build_file(system, "f", pattern_chunks(blocks))
    elapsed, chunks = stream_file(system, "f")
    return elapsed, chunks, system


# ---------------------------------------------------------------------------
# The headline acceptance criterion
# ---------------------------------------------------------------------------


def test_pipelined_read_3x_at_p8_with_identical_bytes():
    baseline, base_chunks, _ = build_and_stream(8, 256)
    piped, piped_chunks, system = build_and_stream(8, 256, prefetch_window=1)
    assert piped_chunks == base_chunks
    assert baseline / piped >= 3.0
    stats = system.bridge.bridge_cache_stats()
    assert stats["hits"] >= 250
    assert stats["prefetch_wasted"] == 0


@pytest.mark.parametrize("window", [1, 2, 4])
def test_deeper_windows_not_slower(window):
    baseline, base_chunks, _ = build_and_stream(8, 128)
    piped, piped_chunks, _ = build_and_stream(8, 128, prefetch_window=window)
    assert piped_chunks == base_chunks
    assert piped < baseline


def test_cache_off_reproduces_seed_run_exactly():
    # Explicitly-off knobs must not merely be "about as fast" as the
    # default build — the very same events must execute.
    default_elapsed, default_chunks, default_system = build_and_stream(4, 64)
    off_elapsed, off_chunks, off_system = build_and_stream(
        4, 64, prefetch_window=0, bridge_cache_blocks=0
    )
    assert off_elapsed == default_elapsed
    assert off_chunks == default_chunks
    assert off_system.sim.events_executed == default_system.sim.events_executed
    assert off_system.bridge.bridge_cache_stats() is None


# ---------------------------------------------------------------------------
# The exact latency model
# ---------------------------------------------------------------------------


def test_steady_state_matches_exact_hit_model():
    system = paper_system(8, seed=7, prefetch_window=1)
    build_file(system, "f", pattern_chunks(256))
    client = system.naive_client()
    times = []

    def body():
        yield from client.open("f")
        for _ in range(256):
            yield from client.seq_read("f")
            times.append(system.sim.now)

    system.run(body(), name="timed-stream")
    model = pipelined_hit_seconds(system.config)
    deltas = [round(b - a, 10) for a, b in zip(times, times[1:])]
    histogram = collections.Counter(deltas)
    common, count = histogram.most_common(1)[0]
    assert common == pytest.approx(model, abs=1e-12)
    # Every delta beyond stream recognition and the occasional catch-up
    # must be exactly one hit round trip.
    assert count >= 250
    predicted = pipelined_read_seconds(256, 8, system.config)
    elapsed = times[-1] - times[0]
    # The measured run adds only start-up misses on top of the model.
    assert predicted <= elapsed <= predicted * 1.15


def test_pipelined_model_validates_inputs():
    with pytest.raises(ValueError):
        pipelined_read_seconds(-1, 4)


# ---------------------------------------------------------------------------
# Parallel view: double-buffered stripes
# ---------------------------------------------------------------------------


def run_parallel_read(p, blocks, seed=11, **kwargs):
    from repro.core import JobController, ParallelWorker
    from repro.sim import join_all

    system = paper_system(p, seed=seed, **kwargs)
    build_file(system, "f", pattern_chunks(blocks))
    client = system.naive_client()
    system.run(client.open("f"), name="open")
    workers = [ParallelWorker(system.client_node, i) for i in range(p)]
    received = {i: [] for i in range(p)}

    def worker_body(worker):
        while True:
            delivery = yield from worker.receive()
            if delivery.eof:
                return
            received[worker.index].append((delivery.block_number, delivery.data))

    worker_processes = [
        system.client_node.spawn(worker_body(w), name=f"worker{w.index}")
        for w in workers
    ]

    def main():
        controller = JobController(system.client_node, system.bridge.port)
        yield from controller.open("f", [w.port for w in workers])
        start = system.sim.now
        for _ in range(-(-blocks // p) + 1):  # one extra round for EOF
            yield from controller.read()
        yield join_all(worker_processes)
        return system.sim.now - start

    elapsed = system.run(main(), name="parallel-read")
    ordered = sorted(
        (block, data) for chunks in received.values() for block, data in chunks
    )
    return elapsed, ordered


def test_parallel_read_double_buffered_identical_and_faster():
    baseline, base_chunks = run_parallel_read(4, 64)
    piped, piped_chunks = run_parallel_read(4, 64, prefetch_window=1)
    assert piped_chunks == base_chunks
    assert len(piped_chunks) == 64
    assert piped < baseline


# ---------------------------------------------------------------------------
# Knobs and construction
# ---------------------------------------------------------------------------


def test_cache_auto_sizes_from_window():
    system = paper_system(8, prefetch_window=2)
    assert system.bridge._cache is not None
    assert system.bridge._cache.capacity == 4 * 2 * 8
    explicit = paper_system(8, prefetch_window=2, bridge_cache_blocks=10)
    assert explicit.bridge._cache.capacity == 10


def test_cache_only_configuration_serves_repeat_reads():
    system = paper_system(4, seed=3, bridge_cache_blocks=64)
    build_file(system, "f", pattern_chunks(32))
    cold, cold_chunks = stream_file(system, "f")
    warm, warm_chunks = stream_file(system, "f")
    assert warm_chunks == cold_chunks
    assert warm < cold
    stats = system.bridge.bridge_cache_stats()
    assert stats["hits"] >= 32
    assert stats["prefetch_installs"] == 0


# ---------------------------------------------------------------------------
# Unit: sequential detector
# ---------------------------------------------------------------------------


def test_detector_recognizes_runs_and_resets():
    det = SequentialDetector()
    assert not det.observe("f", 0)
    assert det.observe("f", 1)
    assert det.observe("f", 2)
    assert not det.observe("f", 9)  # jump resets the run
    assert det.observe("f", 10)
    assert det.recognitions == 2


def test_detector_ignores_random_traffic():
    det = SequentialDetector()
    for block in (5, 3, 8, 1, 12, 7):
        assert not det.observe("f", block)
    det.forget("f")
    assert not det.observe("f", 8)  # 7 -> 8 run was forgotten


# ---------------------------------------------------------------------------
# Unit: the Bridge block cache
# ---------------------------------------------------------------------------


def test_cache_lru_eviction_and_counters():
    cache = BridgeBlockCache(2)
    cache.install("f", 0, b"a")
    cache.install("f", 1, b"b")
    assert cache.lookup("f", 0) == b"a"  # touches 0; 1 becomes LRU
    cache.install("f", 2, b"c")
    assert cache.evictions == 1
    assert cache.lookup("f", 1) is None
    assert cache.lookup("f", 0) == b"a"
    assert cache.hits == 2 and cache.misses == 1


def test_cache_invalidate_bumps_generation_and_counts_waste():
    cache = BridgeBlockCache(8)
    generation = cache.generation("f")
    cache.install("f", 0, b"a", prefetched=True)
    cache.invalidate_block("f", 0)
    assert cache.generation("f") == generation + 1
    assert cache.prefetch_wasted == 1
    assert cache.lookup("f", 0) is None
    cache.install("f", 1, b"b", prefetched=True)
    cache.install("g", 0, b"c")
    cache.invalidate_file("f")
    assert cache.prefetch_wasted == 2
    assert cache.contains("g", 0)


def test_cache_prefetch_used_accounting():
    cache = BridgeBlockCache(4)
    cache.install("f", 0, b"a", prefetched=True)
    assert cache.lookup("f", 0) == b"a"
    assert cache.prefetch_used == 1
    assert cache.lookup("f", 0) == b"a"  # flag cleared: counted once
    assert cache.prefetch_used == 1
    cache.install("f", 1, b"b", prefetched=True)
    cache.mark_used("f", 1)
    cache.mark_used("f", 1)
    assert cache.prefetch_used == 2


def test_cache_peek_has_no_hit_miss_accounting():
    cache = BridgeBlockCache(4)
    cache.install("f", 0, b"a")
    assert cache.peek("f", 0) == b"a"
    assert cache.peek("f", 1) is None
    assert cache.hits == 0 and cache.misses == 0


def test_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        BridgeBlockCache(0)
