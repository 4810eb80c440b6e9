"""Two-phase collective reads: equivalence with the naive view and
exact message accounting."""

import random

import pytest

from repro.analysis.models import twophase_message_counts
from repro.collective import TwoPhaseIO, elect_aggregators
from repro.core.addressing import InterleaveMap
from repro.errors import BridgeBadRequestError, ProcessError
from repro.harness import paper_system
from repro.harness.builders import BridgeSystem
from repro.storage import FixedLatency
from repro.config import DATA_BYTES_PER_BLOCK
from repro.workloads import build_file, pattern_chunks


def padded_chunks(count, stamp=b"BLK"):
    """pattern_chunks padded to the full data area: EFS reads always
    return the zero-padded 960-byte data area, so full-size chunks make
    exact equality comparisons valid."""
    return [
        chunk.ljust(DATA_BYTES_PER_BLOCK, b"\x00")
        for chunk in pattern_chunks(count, stamp=stamp)
    ]


def make_system(p=4, seed=7):
    return BridgeSystem(p, seed=seed, disk_latency=FixedLatency(0.0001))


# ---------------------------------------------------------------------------
# Election
# ---------------------------------------------------------------------------


def test_elect_aggregators_one_per_touched_slot():
    imap = InterleaveMap(4)
    assignment = elect_aggregators(imap, [[0, 4, 8], [1, 2]])
    assert sorted(assignment) == [0, 1, 2]
    assert assignment[0] == {0: [0, 4, 8]}
    assert assignment[1] == {1: [1]}
    assert assignment[2] == {1: [2]}


def test_elect_aggregators_dedups_per_worker_keeps_order():
    imap = InterleaveMap(2)
    assignment = elect_aggregators(imap, [[6, 2, 6, 0]])
    assert assignment == {0: {0: [6, 2, 0]}}


# ---------------------------------------------------------------------------
# Collective read
# ---------------------------------------------------------------------------


def test_read_matches_naive_view():
    system = make_system()
    blocks = 32
    chunks = padded_chunks(blocks)
    build_file(system, "f", chunks)
    engine = TwoPhaseIO(system, "f")
    per_worker = [[0, 4, 8], [1, 5, 2], [31, 30, 29]]

    def body():
        return (yield from engine.read(per_worker))

    data, stats = system.run(body())
    assert data == [[chunks[b] for b in wb] for wb in per_worker]
    assert stats.workers == 3


def test_read_randomized_equivalence():
    rng = random.Random(1234)
    system = make_system(p=5, seed=9)
    blocks = 60
    chunks = padded_chunks(blocks)
    build_file(system, "f", chunks)
    engine = TwoPhaseIO(system, "f")
    per_worker = [
        [rng.randrange(blocks) for _ in range(rng.randint(1, 20))]
        for _ in range(4)
    ]

    def body():
        return (yield from engine.read(per_worker))

    data, stats = system.run(body())
    # Byte-identical to the naive view, duplicates and order preserved.
    assert data == [[chunks[b] for b in wb] for wb in per_worker]
    # Message counts equal the analytic model exactly.
    model = twophase_message_counts(per_worker, 5)
    assert stats.aggregators == model["aggregators"]
    assert stats.efs_requests == model["efs_requests"]
    assert stats.exchange_messages == model["exchange_messages"]
    assert stats.redistribution_messages == model["redistribution_messages"]


def test_read_stats_one_efs_request_per_slot():
    system = make_system()
    build_file(system, "f", padded_chunks(16))
    engine = TwoPhaseIO(system, "f")

    def warm():
        yield from engine.open()

    system.run(warm())
    before = sum(s.requests_served for s in system.efs_servers)

    def body():
        return (yield from engine.read([[0, 4], [1, 2, 3]]))

    _data, stats = system.run(body())
    measured = sum(s.requests_served for s in system.efs_servers) - before
    assert measured == stats.efs_requests == 4  # slots {0}, {1, 2, 3}


def test_read_rejects_out_of_bounds():
    system = make_system()
    build_file(system, "f", padded_chunks(8))
    engine = TwoPhaseIO(system, "f")

    def body():
        yield from engine.read([[0, 8]])

    with pytest.raises(ProcessError) as excinfo:
        system.run(body())
    assert isinstance(excinfo.value.__cause__, BridgeBadRequestError)


def test_disordered_file_is_refused_not_misread():
    """A disordered file's blocks follow its block map, not the
    interleave the aggregators align to: the collective read refuses it
    instead of moving the wrong blocks."""
    system = paper_system(4, seed=0)
    client = system.naive_client()

    def setup():
        yield from client.create("d", disordered=True)
        yield from client.write_all("d", padded_chunks(16))

    system.run(setup())
    engine = TwoPhaseIO(system, "d")
    with pytest.raises(ProcessError) as excinfo:
        system.run(engine.read([[0, 1, 2, 3]]))
    assert isinstance(excinfo.value.__cause__, BridgeBadRequestError)


def test_read_rejects_zero_workers():
    system = make_system()
    build_file(system, "f", padded_chunks(8))
    engine = TwoPhaseIO(system, "f")

    def body():
        yield from engine.read([])

    with pytest.raises(ProcessError) as excinfo:
        system.run(body())
    assert isinstance(excinfo.value.__cause__, BridgeBadRequestError)
