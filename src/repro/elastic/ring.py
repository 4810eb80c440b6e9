"""S22: name-routing rings for the partitioned fabric.

The S20 fabric froze its partition count into ``crc32(name) mod k``:
changing ``k`` remaps almost every name, so the fabric could never grow
or shrink without stranding the namespace.  This module makes the
routing map a first-class object with two registered implementations:

* :class:`~repro.core.ring.ModuloRing` — the seed's ``crc32 mod k`` map
  (it lives in ``core``, next to the :class:`~repro.core.ring.Ring`
  interface, because the fabric's default must not depend on a service).
* :class:`ConsistentHashRing` — a seeded consistent-hash ring with
  deterministic virtual nodes.  Each partition owns ``vnodes`` points on
  a 64-bit circle; a name belongs to the partition owning the first
  point at or after its hash.  Because partition ``i``'s points depend
  only on ``(seed, i)``, growing from ``k`` to ``n`` adds points owned
  exclusively by partitions ``k..n-1`` and shrinking removes exactly
  those — so the set of names whose owner changes is minimal (the
  reassigned arcs and nothing else), the property
  :func:`repro.elastic.plan.plan_resize` asserts.

Both rings implement :class:`~repro.core.ring.Ring` — ``partitions``,
``partition_of(name)``, ``with_partitions(n)`` — which is all
:class:`~repro.core.partitioned.PartitionedBridge` needs.  Rings are
pure routing tables: deterministic, stateless, safe to rebuild from
``(kind, partitions, seed)`` on any client.
"""

from __future__ import annotations

from _blake2 import blake2b
from bisect import bisect_right
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.ring import ModuloRing


def hash64(key: str) -> int:
    """Stable 64-bit hash of a string (blake2b, seed-independent).

    ``blake2b`` comes from ``_blake2``, the builtin module that
    ``hashlib.blake2b`` re-exports: ``import hashlib`` would also load
    ``_hashlib`` (OpenSSL, 3.6 MiB of RSS), which the ring never uses."""
    return int.from_bytes(blake2b(key.encode(), digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Seeded consistent hashing with deterministic virtual nodes.

    Partition ``i`` owns the points ``hash64(f"{seed}/vnode/{i}/{v}")``
    for ``v`` in ``range(vnodes)``; names hash in a separate domain
    (``"name/..."``) so a vnode label can never collide with a file
    name.  Lookup is a binary search over the sorted points with
    wraparound.  Same ``(partitions, seed, vnodes, dropped)`` -> same
    table, on every client, in every run.

    S24 sheds load by arc: ``dropped`` is a frozen set of
    ``(partition, vnode)`` pairs removed from the table.  Dropping
    exactly the arc a hot name lives on sheds *that name* (plus its
    arc-mates) to the circle successor and nothing else — every
    retained arc sits at exactly the same point it always did, the
    minimal-disruption invariant the planner asserts.  This is how the
    S24 rebalancer moves individual hot names without disturbing the
    namespace.
    """

    kind = "consistent"

    __slots__ = ("partitions", "seed", "vnodes", "dropped",
                 "_points", "_owners", "_vnode_ids")

    def __init__(self, partitions: int, seed: int = 0, vnodes: int = 64,
                 dropped: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        if partitions < 1:
            raise ValueError("need at least one partition")
        if vnodes < 1:
            raise ValueError("need at least one virtual node per partition")
        dropped = frozenset(dropped) if dropped else frozenset()
        for partition, vnode in dropped:
            if not 0 <= partition < partitions:
                raise ValueError(f"dropped arc names partition {partition} "
                                 f"outside [0, {partitions})")
            if not 0 <= vnode < vnodes:
                raise ValueError(
                    f"dropped arc ({partition}, {vnode}) outside partition "
                    f"{partition}'s {vnodes} vnodes"
                )
        self.partitions = partitions
        self.seed = seed
        self.vnodes = vnodes
        self.dropped: FrozenSet[Tuple[int, int]] = dropped
        table: List[Tuple[int, int, int]] = []
        for partition in range(partitions):
            for vnode in range(vnodes):
                if (partition, vnode) in dropped:
                    continue
                point = hash64(f"{seed}/vnode/{partition}/{vnode}")
                table.append((point, partition, vnode))
        counts = [0] * partitions
        for _point, partition, _vnode in table:
            counts[partition] += 1
        for partition, count in enumerate(counts):
            if count == 0:
                raise ValueError(
                    f"partition {partition} has no arcs left "
                    f"(all {vnodes} dropped)"
                )
        table.sort()
        self._points = [point for point, _owner, _vnode in table]
        self._owners = [owner for _point, owner, _vnode in table]
        self._vnode_ids = [vnode for _point, _owner, vnode in table]

    def partition_of(self, name: str) -> int:
        index = bisect_right(self._points, hash64(f"name/{name}"))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    # -- S24 load-shaping surface --------------------------------------

    def _owner_index(self, name: str) -> int:
        index = bisect_right(self._points, hash64(f"name/{name}"))
        return 0 if index == len(self._points) else index

    def vnode_of(self, name: str) -> Tuple[int, int]:
        """The ``(partition, vnode)`` arc a name lives on — the handle
        :meth:`shed_arc` takes to move exactly this name's arc."""
        index = self._owner_index(name)
        return self._owners[index], self._vnode_ids[index]

    def point_of(self, name: str) -> int:
        """The circle point of the arc owning ``name`` (the planner's
        minimal-disruption check compares these across rings)."""
        return self._points[self._owner_index(name)]

    def arc_points(self) -> Dict[int, FrozenSet[int]]:
        """Per-partition frozen sets of owned circle points."""
        owned: Dict[int, set] = {p: set() for p in range(self.partitions)}
        for point, owner in zip(self._points, self._owners):
            owned[owner].add(point)
        return {p: frozenset(points) for p, points in owned.items()}

    def shed_arc(self, partition: int, vnode: int) -> "ConsistentHashRing":
        """The same ring minus one arc: names on ``(partition, vnode)``
        fall to the next point on the circle (usually a neighbor)."""
        if (partition, vnode) in self.dropped:
            raise ValueError(f"arc ({partition}, {vnode}) already dropped")
        return ConsistentHashRing(
            self.partitions, seed=self.seed, vnodes=self.vnodes,
            dropped=self.dropped | {(partition, vnode)},
        )

    def with_partitions(self, partitions: int) -> "ConsistentHashRing":
        """The same ring at a different size (same seed and vnode count,
        so shared partitions keep their exact points — including their
        dropped arcs; added partitions start with nothing dropped)."""
        dropped = frozenset((p, v) for p, v in self.dropped if p < partitions)
        return ConsistentHashRing(partitions, seed=self.seed,
                                  vnodes=self.vnodes, dropped=dropped)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        extra = f", dropped={sorted(self.dropped)}" if self.dropped else ""
        return (f"ConsistentHashRing(partitions={self.partitions}, "
                f"seed={self.seed}, vnodes={self.vnodes}{extra})")


#: Registered ring kinds, by name (``make_ring`` spec strings).
RING_KINDS: Dict[str, Callable[..., object]] = {
    ModuloRing.kind: ModuloRing,
    ConsistentHashRing.kind: ConsistentHashRing,
}


def make_ring(kind: str, partitions: int, **kwargs):
    """Build a registered ring: ``make_ring("consistent", 4, seed=7)``."""
    factory = RING_KINDS.get(kind)
    if factory is None:
        raise ValueError(
            f"unknown ring kind {kind!r} (have {sorted(RING_KINDS)})"
        )
    return factory(partitions, **kwargs)
