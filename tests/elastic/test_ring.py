"""S22 ring invariants: uniformity, minimal disruption, determinism.

These are the properties the migration subsystem leans on without
re-checking at runtime: a consistent ring spreads load evenly enough
that resizing is worth it, a same-seed resize moves exactly the
reassigned arcs (the planner's move set, nothing more), and the whole
table is a pure function of ``(kind, partitions, seed, vnodes)`` so
every client in every run routes identically.
"""

import hashlib
import zlib

import pytest

from repro.elastic.plan import plan_resize
from repro.elastic.ring import (
    RING_KINDS,
    ConsistentHashRing,
    ModuloRing,
    hash64,
    make_ring,
)

NAMES = [f"file-{i:05d}" for i in range(2000)]


def loads_for(ring, names=NAMES):
    loads = [0] * ring.partitions
    for name in names:
        loads[ring.partition_of(name)] += 1
    return loads


# ---------------------------------------------------------------------------
# Load uniformity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("partitions", range(1, 9))
def test_consistent_ring_load_uniformity(partitions):
    """Chi-square-ish bound: over 2000 names every partition's share
    stays within [0.5, 1.6]x the fair share at 64 vnodes — measured
    spread across 1-8 partitions is 0.69-1.23x, so these bounds catch a
    broken hash (which collapses to one arc) without flaking on the
    real variance of a 64-vnode ring."""
    ring = ConsistentHashRing(partitions, seed=0)
    loads = loads_for(ring)
    fair = len(NAMES) / partitions
    assert sum(loads) == len(NAMES)
    for partition, load in enumerate(loads):
        assert 0.5 * fair <= load <= 1.6 * fair, (partition, load, fair)


def test_vnodes_tighten_the_spread():
    """More virtual nodes -> flatter ring: the max/fair ratio at 512
    vnodes must beat the ratio at 8 vnodes."""
    coarse = ConsistentHashRing(4, seed=0, vnodes=8)
    fine = ConsistentHashRing(4, seed=0, vnodes=512)
    fair = len(NAMES) / 4
    assert max(loads_for(fine)) / fair < max(loads_for(coarse)) / fair


# ---------------------------------------------------------------------------
# Minimal disruption
# ---------------------------------------------------------------------------


def moved_names(old_ring, new_ring):
    return {
        name for name in NAMES
        if old_ring.partition_of(name) != new_ring.partition_of(name)
    }


@pytest.mark.parametrize("old_k,new_k", [(2, 4), (4, 2), (3, 8), (8, 3)])
def test_minimal_disruption_matches_planner_move_set(old_k, new_k):
    """The set of names whose owner changes is exactly the planner's
    move set, and every move touches an added/removed partition: a grow
    only moves names *to* partitions >= old_k, a shrink only *from*
    partitions >= new_k."""
    old_ring = ConsistentHashRing(old_k, seed=3)
    new_ring = old_ring.with_partitions(new_k)
    plan = plan_resize(old_ring, new_ring, NAMES)
    assert {m.name for m in plan.moves} == moved_names(old_ring, new_ring)
    assert len(plan.moves) + plan.unchanged == len(NAMES)
    for move in plan.moves:
        if new_k > old_k:
            assert move.dst >= old_k, move
        else:
            assert move.src >= new_k, move


def test_disruption_fraction_tracks_the_reassigned_share():
    """Growing k -> k+1 reassigns about 1/(k+1) of the circle; the
    modulo ring by contrast remaps ~4/5 of the namespace (names keep
    their owner only when ``crc32 % 4 == crc32 % 5``)."""
    old_ring = ConsistentHashRing(4, seed=0)
    plan = plan_resize(old_ring, old_ring.with_partitions(5), NAMES)
    assert 0.1 <= plan.disruption <= 0.35  # ideal 0.2
    modulo = plan_resize(ModuloRing(4), ModuloRing(4).with_partitions(5), NAMES)
    assert modulo.disruption > 2 * plan.disruption


def test_planner_refuses_a_ring_that_shifts_retained_arcs():
    """If a grown ring hands any arc of a retained partition to a
    different retained partition (a vnode-stability bug), names would
    move *between* survivors and the sweep could strand files — the
    planner must refuse such a plan, not pass it to the migrator."""
    old_ring = ConsistentHashRing(2, seed=0)
    bad = old_ring.with_partitions(4)
    # Corrupt the table: collapse the added partitions' points back onto
    # the retained ones, so "moved" names land on partitions < old_k.
    bad._owners = [owner % 2 for owner in bad._owners]
    with pytest.raises(AssertionError, match="minimal-disruption"):
        plan_resize(old_ring, bad, NAMES)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_same_seed_same_table():
    a = ConsistentHashRing(5, seed=11)
    b = ConsistentHashRing(5, seed=11)
    assert [a.partition_of(n) for n in NAMES] == \
        [b.partition_of(n) for n in NAMES]


def test_different_seed_different_table():
    a = ConsistentHashRing(5, seed=11)
    b = ConsistentHashRing(5, seed=12)
    assert [a.partition_of(n) for n in NAMES] != \
        [b.partition_of(n) for n in NAMES]


def test_hash64_is_stable():
    # Frozen values: a silent hash change would remap every elastic
    # namespace on disk-format-equivalent grounds.
    assert hash64("name/file-00000") == 0x379147CB33B99303


def test_hash64_is_hashlib_blake2b():
    """The reference: an 8-byte ``hashlib.blake2b`` digest, big-endian.
    A "faster hash" would move every elastic number; this names it."""
    def reference(key):
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    ring = ConsistentHashRing(4, seed=7)
    arcs = {p: [f"7/vnode/{p}/{v}" for v in range(ring.vnodes)]
            for p in range(4)}
    assert ring.arc_points() == {
        p: frozenset(map(reference, labels)) for p, labels in arcs.items()
    }
    names = [f"name/{name}" for name in NAMES[:8] + ["tf000", ""]]
    for key in [label for labels in arcs.values() for label in labels] + names:
        assert hash64(key) == reference(key), key


def test_plan_is_deterministic_and_sorted():
    old_ring = ConsistentHashRing(2, seed=7)
    new_ring = old_ring.with_partitions(4)
    a = plan_resize(old_ring, new_ring, reversed(NAMES))
    b = plan_resize(old_ring, new_ring, set(NAMES))
    assert a.moves == b.moves
    assert [m.name for m in a.moves] == sorted(m.name for m in a.moves)


# ---------------------------------------------------------------------------
# The legacy ring and the registry
# ---------------------------------------------------------------------------


def test_modulo_ring_is_the_seed_map():
    """ModuloRing == crc32 mod k — the seed routing map, one source of
    truth, byte-identical to the committed baseline."""
    ring = ModuloRing(3)
    for name in NAMES[:64]:
        want = zlib.crc32(name.encode()) % 3
        assert ring.partition_of(name) == want


def test_ring_registry():
    assert set(RING_KINDS) == {"modulo", "consistent"}
    assert isinstance(make_ring("modulo", 3), ModuloRing)
    ring = make_ring("consistent", 4, seed=9, vnodes=16)
    assert (ring.partitions, ring.seed, ring.vnodes) == (4, 9, 16)
    with pytest.raises(ValueError, match="unknown ring kind"):
        make_ring("rendezvous", 4)


@pytest.mark.parametrize("factory", [ModuloRing, ConsistentHashRing])
def test_rings_reject_zero_partitions(factory):
    with pytest.raises(ValueError):
        factory(0)


# Explicit ids keep each row's test id stable when a row is deleted.
@pytest.mark.parametrize("keywords, complaint", [
    pytest.param({"vnodes": 0}, "at least one virtual node",
                 id="keywords0-at least one virtual node"),
    pytest.param({"dropped": [(2, 0)]}, "names partition 2",
                 id="keywords3-names partition 2"),
    pytest.param({"vnodes": 4, "dropped": [(1, 4)]},
                 "outside partition 1's 4 vnodes",
                 id="keywords4-outside partition 1's 4 vnodes"),
])
def test_consistent_ring_rejects_bad_weights_and_arcs(keywords, complaint):
    with pytest.raises(ValueError, match=complaint):
        ConsistentHashRing(2, **keywords)


# ---------------------------------------------------------------------------
# Targeted shedding (S24)
# ---------------------------------------------------------------------------


def test_with_partitions_preserves_weights_and_drops():
    ring = ConsistentHashRing(3, seed=2, vnodes=32).shed_arc(1, 7)
    grown = ring.with_partitions(5)
    assert grown.dropped == frozenset({(1, 7)})
    shrunk = grown.with_partitions(2)
    assert shrunk.dropped == frozenset({(1, 7)})
    assert shrunk.with_partitions(1).dropped == frozenset()


def test_shed_arc_moves_exactly_that_arcs_names():
    """Shedding one arc moves exactly the names on it — each to the
    circle successor — and nothing else; re-shedding the same arc
    raises."""
    ring = ConsistentHashRing(4, seed=0, vnodes=64)
    victims = [n for n in NAMES if ring.partition_of(n) == 1]
    arc = ring.vnode_of(victims[0])
    shed = ring.shed_arc(*arc)
    plan = plan_resize(ring, shed, NAMES)
    on_arc = {n for n in NAMES if ring.vnode_of(n) == arc}
    assert {m.name for m in plan.moves} == on_arc
    assert all(move.src == 1 for move in plan.moves)
    with pytest.raises(ValueError):
        shed.shed_arc(*arc)


def test_shed_cannot_strip_a_partition_bare():
    ring = ConsistentHashRing(2, seed=0, vnodes=1)
    with pytest.raises(ValueError, match="no arcs left"):
        ring.shed_arc(0, 0)
