"""S24: load-aware rebalancing — a heat-driven control plane.

The S22 fabric can move the namespace (rings, planner, online
migration); this package decides *when* and *what*.  Three pieces:

* :mod:`repro.rebalance.heat` — :class:`HeatMap`, sliding-window busy
  time and request counts per partition and per name, fed from the base
  server loop with zero scheduled events (installing it cannot change
  the event sequence).
* :class:`~repro.elastic.ring.ConsistentHashRing` weights + ``shed_arc``
  (in :mod:`repro.elastic`) — the placement surface the policy steers.
* :mod:`repro.rebalance.policy` — :class:`Rebalancer`, a periodic sim
  process that reads the heat map (and optional S21 SLO telemetry),
  plans bounded same-size arc-shed "resizes" behind an imbalance
  threshold / cooldown / move budget, and drives
  :meth:`~repro.elastic.migrate.FabricResizer.apply` live.

Entry point for experiments: ``BridgeSystem(..., elastic=...,
rebalance=True)`` then spawn ``system.rebalancer.run(duration)`` next to
traffic (``run_rebalance_experiment`` does all of this).  With
``rebalance=`` off nothing here runs — the committed acceptance trace
stays byte-identical.
"""

from repro.rebalance.heat import HeatMap
from repro.rebalance.policy import RebalanceConfig, Rebalancer, SweepRecord

__all__ = [
    "HeatMap",
    "RebalanceConfig",
    "Rebalancer",
    "SweepRecord",
]
