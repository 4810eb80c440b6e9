"""The name-routing ring interface, and the seed's mod-k ring.

A ring is a pure routing table — deterministic, stateless, safe to
rebuild on any client — and :class:`Ring` is all
:class:`~repro.core.partitioned.PartitionedBridge` needs of one.  The
interface and the default live in ``core`` so the fabric never imports a
service; the seeded consistent-hash ring the S22 elastic fabric resizes
with is :class:`repro.elastic.ring.ConsistentHashRing`.
"""

from __future__ import annotations

import zlib
from typing import Protocol


class Ring(Protocol):
    """What the fabric asks of a routing map."""

    #: Registry name of the ring's implementation (``RING_KINDS``).
    kind: str
    partitions: int

    def partition_of(self, name: str) -> int:
        """The partition owning ``name``, in ``range(partitions)``."""

    def with_partitions(self, partitions: int) -> "Ring":
        """The same ring at a different size."""


class ModuloRing:
    """The legacy mod-k map: ``crc32(name) % partitions``.

    This is the seed's routing function verbatim, so an elastic-off
    system routes (and traces) byte-identically to the committed
    acceptance baseline.  Resizing a modulo ring remaps ~``(k-1)/k`` of
    all names, which is exactly why the consistent ring exists; it still
    supports ``with_partitions`` so the planner can quantify that
    disruption.
    """

    kind = "modulo"

    __slots__ = ("partitions", "seed")

    def __init__(self, partitions: int, seed: int = 0) -> None:
        if partitions < 1:
            raise ValueError("need at least one partition")
        self.partitions = partitions
        self.seed = seed  # unused; kept for duck-type parity

    def partition_of(self, name: str) -> int:
        return zlib.crc32(name.encode()) % self.partitions

    def with_partitions(self, partitions: int) -> "ModuloRing":
        return ModuloRing(partitions, seed=self.seed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ModuloRing(partitions={self.partitions})"
