"""S22: the resize planner.

Diffs an old ring against a new one over a concrete namespace and emits
the *move set* — exactly the names whose owner changes, each as a
``(name, src, dst)`` :class:`Move`.  For same-seed consistent rings the
planner also asserts the minimal-disruption property before returning:
a grow may only move names *to* the added partitions and a shrink may
only move names *from* the removed ones.  Any other move means the
shared partitions' vnode points shifted — a routing bug that would
silently strand files — so the planner refuses to hand such a plan to
the migrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.elastic.ring import hash64


@dataclass(frozen=True)
class Move:
    """One planned namespace-entry move: ``name`` from partition ``src``
    to partition ``dst``."""

    name: str
    src: int
    dst: int


@dataclass
class MigrationPlan:
    """The full diff of one resize."""

    old_partitions: int
    new_partitions: int
    moves: List[Move] = field(default_factory=list)
    unchanged: int = 0

    @property
    def disruption(self) -> float:
        """Fraction of the namespace that moves."""
        total = len(self.moves) + self.unchanged
        return len(self.moves) / total if total else 0.0


def fabric_namespace(fabric) -> Dict[str, List[int]]:
    """Every name any provisioned partition holds, with the indexes of
    the partitions holding it (exactly one, on a sound fabric).

    The one fabric-wide namespace scan: the resizer and the rebalancer
    plan over its keys, the safety oracle audits its values."""
    holders: Dict[str, List[int]] = {}
    for index, server in enumerate(fabric.servers):
        for name in server.directory.names():
            holders.setdefault(name, []).append(index)
    return holders


def plan_resize(old_ring, new_ring, names: Iterable[str]) -> MigrationPlan:
    """Diff ``old_ring`` -> ``new_ring`` over ``names``.

    Names are visited in sorted order so the plan — and therefore the
    migration sweep's event sequence — is deterministic regardless of
    how the caller collected the namespace.
    """
    plan = MigrationPlan(old_ring.partitions, new_ring.partitions)
    for name in sorted(names):
        src = old_ring.partition_of(name)
        dst = new_ring.partition_of(name)
        if src == dst:
            plan.unchanged += 1
        else:
            plan.moves.append(Move(name, src, dst))
    _assert_minimal_disruption(old_ring, new_ring, plan)
    return plan


def _assert_minimal_disruption(old_ring, new_ring,
                               plan: MigrationPlan) -> None:
    """Consistent rings sharing a seed may only move names on the
    reassigned arcs; violations are wiring bugs, not workloads.

    The check is arc-precise: a name may move only if the arc it lived
    on disappeared from the source's point set (a shrink or an S24
    ``shed_arc``) or the arc it lands on is a *genuine* new arc of the
    destination (a grow) — genuine meaning the owning point actually
    equals ``hash64(seed/vnode/dst/v)``, so a corrupted table that hands
    another partition's arcs to the destination cannot masquerade as
    growth.  Because the point formula
    depends only on ``(seed, partition, vnode)``, any other move means a
    *retained* arc shifted — a routing bug that would silently strand
    files — which covers grows, shrinks, and S24's same-size arc-shedding
    "resizes" with one rule.
    """
    if (old_ring.kind != "consistent"
            or new_ring.kind != "consistent"
            or old_ring.seed != new_ring.seed
            or old_ring.vnodes != new_ring.vnodes):
        return
    old_points = old_ring.arc_points()
    new_points = new_ring.arc_points()
    empty: frozenset = frozenset()
    bad = []
    for move in plan.moves:
        arc_removed = (
            old_ring.point_of(move.name) not in new_points.get(move.src, empty)
        )
        new_point = new_ring.point_of(move.name)
        owner, vnode = new_ring.vnode_of(move.name)
        arc_added = (
            new_point not in old_points.get(move.dst, empty)
            and owner == move.dst
            and hash64(f"{new_ring.seed}/vnode/{owner}/{vnode}") == new_point
        )
        if not arc_removed and not arc_added:
            bad.append(move)
    if bad:
        old_k, new_k = old_ring.partitions, new_ring.partitions
        sample = ", ".join(f"{m.name}:{m.src}->{m.dst}" for m in bad[:4])
        raise AssertionError(
            f"minimal-disruption violated: plan {old_k}->{new_k} moved "
            f"names whose arcs never changed ({len(bad)} moves, "
            f"e.g. {sample})"
        )
