"""S22 + S24: the ring-control plane — consistent-hash routing, live
migration, and the heat-driven policy that decides when to use them.

Makes the S20 partitioned fabric resizable online, and steers it:

* :mod:`repro.elastic.ring` — pluggable name-routing rings: the seed's
  mod-k map (:class:`ModuloRing`, byte-identical routing with
  elasticity off) and a seeded consistent-hash ring
  (:class:`ConsistentHashRing`) whose resizes touch only the
  reassigned arcs, with ``shed_arc`` as the placement surface the
  policy steers.
* :mod:`repro.elastic.plan` — :func:`fabric_namespace` scans the live
  namespace once for every consumer; :func:`plan_resize` diffs
  old->new rings over it into a minimal move set and asserts the
  minimal-disruption property.
* :mod:`repro.elastic.migrate` — :class:`FabricResizer` executes a plan
  against a running system: atomic ring flip under a forwarding net,
  throttled per-name entry moves with generation-bumped cache
  invalidation, and a double-read window so in-flight requests routed
  by the old ring are redirected, never failed.
* :mod:`repro.elastic.heat` — :class:`HeatMap`, sliding-window busy
  time and request counts per partition and per name, fed from the base
  server loop with zero scheduled events (installing it cannot change
  the event sequence).
* :mod:`repro.elastic.policy` — :class:`Rebalancer`, a periodic sim
  process that reads the heat map (and optional S21 SLO telemetry),
  plans bounded same-size arc-shed "resizes" behind an imbalance
  threshold / cooldown / move budget, and drives
  :meth:`FabricResizer.apply` live.

Entry points for experiments: ``BridgeSystem(..., elastic=N)`` then
``system.resize_fabric(new_count)``; ``BridgeSystem(..., elastic=...,
rebalance={})`` then spawn ``system.rebalancer.run(duration)`` next to
traffic (see :mod:`repro.harness.builders`).  With both off only the
ring registry is consulted — the committed acceptance trace stays
byte-identical.
"""

from repro.elastic.heat import HeatMap
from repro.elastic.migrate import FabricResizer, MigrationReport
from repro.elastic.plan import (
    MigrationPlan,
    Move,
    fabric_namespace,
    plan_resize,
)
from repro.elastic.policy import RebalanceConfig, Rebalancer, SweepRecord
from repro.elastic.ring import (
    RING_KINDS,
    ConsistentHashRing,
    ModuloRing,
    hash64,
    make_ring,
)

__all__ = [
    "ConsistentHashRing",
    "FabricResizer",
    "HeatMap",
    "MigrationPlan",
    "MigrationReport",
    "ModuloRing",
    "Move",
    "RING_KINDS",
    "RebalanceConfig",
    "Rebalancer",
    "SweepRecord",
    "fabric_namespace",
    "hash64",
    "make_ring",
    "plan_resize",
]
