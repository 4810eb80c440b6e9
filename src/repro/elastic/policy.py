"""S24 policy engine: the closed loop that moves heat off hot partitions.

The S22 resizer is pure mechanism — it migrates the namespace onto
whatever ring it is handed, but something has to *choose* the ring.
:class:`Rebalancer` is that something: a sim process that wakes every
``interval`` simulated seconds, reads the :class:`~repro.elastic.heat.
HeatMap` (and, when given one, the S21 SLO recorder), and when the
fabric is measurably skewed picks the hottest names on the hottest
partition and sheds exactly the arcs they live on
(:meth:`~repro.elastic.ring.ConsistentHashRing.shed_arc`) — a same-size,
arc-shedding "resize" executed by the standard
:meth:`~repro.elastic.migrate.FabricResizer.apply` sweep, with the full
plan+flip / forwarding-window safety argument intact.

Stability guards (the first two are :class:`RebalanceConfig` fields, the
rest the constants below):

* **imbalance threshold** — act only when peak/mean busy rate exceeds
  it (plus a :data:`MIN_BUSY_RATE` floor so an idle fabric is never
  "rebalanced" on noise);
* **hysteresis/cooldown** — after acting, hold off for ``cooldown``
  simulated seconds so the previous move's effect shows up in the
  window before the next decision;
* **move budget** — a candidate ring is planned against the live
  namespace *before* being applied, and arcs whose plans exceed
  :data:`MOVE_BUDGET` entry moves are rejected (shedding should nudge,
  not reshuffle);
* **arc floor** — a partition is never shed below :data:`MIN_ARCS`
  points, so the ring can always route to it and repeated sweeps cannot
  strip a partition bare.

Every sweep — acting or not — appends a :class:`SweepRecord` (rates,
imbalance, decision, per-class p99 so far) and refreshes the
``rebalance.*`` gauges; the E25 bench plots exactly this trajectory.

Determinism: decisions derive only from the heat map, the ring, and the
sorted namespace; ties in name heat break lexicographically.  Same seed,
same traffic -> same sweeps, same moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.elastic.migrate import FabricResizer
from repro.elastic.plan import fabric_namespace, plan_resize
from repro.sim import Timeout

MOVE_BUDGET = 12       # max planned entry moves per sweep
SHED_LIMIT = 2         # max arcs shed per sweep
MIN_ARCS = 8           # never shed a partition below this
MIN_BUSY_RATE = 0.005  # busy-s/s floor: below this, idle
TOP_NAMES = 8          # hottest names considered per sweep


@dataclass(frozen=True)
class RebalanceConfig:
    """Knobs for one :class:`Rebalancer` (all simulated seconds)."""

    interval: float = 2.0        # sweep period
    threshold: float = 1.25      # act when peak/mean busy rate exceeds
    cooldown: float = 4.0        # hysteresis between acting sweeps
    watch_only: bool = False     # observe + record, never apply


@dataclass
class SweepRecord:
    """One control-loop decision, acted on or not."""

    at: float
    busy_rates: List[float]
    imbalance: float
    action: str  # idle | balanced | cooldown | no-candidate | watch | rebalance
    shed: List[Tuple[int, int]] = field(default_factory=list)
    planned: int = 0
    moved: int = 0
    p99: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "at": self.at,
            "busy_rates": list(self.busy_rates),
            "imbalance": self.imbalance,
            "action": self.action,
            "shed": [list(arc) for arc in self.shed],
            "planned": self.planned,
            "moved": self.moved,
            "p99": dict(self.p99),
        }


class Rebalancer:
    """The S24 control loop over one system's elastic fabric.

    ``heat`` is the installed :class:`HeatMap`; sheds are executed by a
    :class:`~repro.elastic.migrate.FabricResizer` at its defaults.  Once
    an S21 :class:`~repro.traffic.slo.SLORecorder` is attached
    (:meth:`attach`) its per-class p99s are snapshotted into every sweep
    record.  The loop is duration-bounded (like the S21 generator) so a
    drained simulation terminates.
    """

    def __init__(self, system, heat,
                 config: Optional[RebalanceConfig] = None) -> None:
        if system.fabric.ring.kind != "consistent":
            raise ValueError(
                "rebalancing needs a consistent-hash ring "
                "(build the system with elastic=...)"
            )
        self.system = system
        self.heat = heat
        self.config = config or RebalanceConfig()
        self.slo = None
        self.resizer = FabricResizer(system)
        self.records: List[SweepRecord] = []
        self._last_action: Optional[float] = None

    # ------------------------------------------------------------------

    def attach(self, slo) -> None:
        """Late-bind the SLO recorder (experiments build it after the
        system)."""
        self.slo = slo

    @property
    def moves_applied(self) -> int:
        return sum(record.moved for record in self.records)

    @property
    def actions(self) -> int:
        return sum(1 for r in self.records if r.action == "rebalance")

    # ------------------------------------------------------------------

    def run(self, duration: float):
        """Generator: sweep every ``interval`` until ``duration`` simulated
        seconds have passed.  Spawn next to traffic:
        ``system.client_node.spawn(rebalancer.run(20.0))``."""
        sim = self.system.sim
        deadline = sim.now + duration
        interval = self.config.interval
        while sim.now + interval <= deadline + 1e-9:
            yield Timeout(interval)
            yield from self.sweep()
        return self.records

    def sweep(self):
        """Generator: one control-loop iteration."""
        system = self.system
        sim = system.sim
        fabric = system.fabric
        ring = fabric.ring
        active = ring.partitions
        now = sim.now
        rates = self.heat.partition_rates(now)[:active]
        mean = sum(rates) / active
        imbalance = (max(rates) / mean) if mean > 0 else 0.0
        record = SweepRecord(at=now, busy_rates=rates, imbalance=imbalance,
                             action="balanced", p99=self._p99_snapshot())
        cfg = self.config
        if mean < MIN_BUSY_RATE:
            record.action = "idle"
        elif imbalance < cfg.threshold:
            record.action = "balanced"
        elif (self._last_action is not None
              and now - self._last_action < cfg.cooldown):
            record.action = "cooldown"
        else:
            candidate, shed, moves = self._plan_shed(ring, rates)
            if candidate is None:
                record.action = "no-candidate"
            elif cfg.watch_only:
                record.action = "watch"
                record.shed = shed
                record.planned = len(moves)
            else:
                record.action = "rebalance"
                record.shed = shed
                record.planned = len(moves)
                self._last_action = now
                report = yield from self.resizer.apply(candidate)
                record.moved = report.moved
        self.records.append(record)
        self._publish(record)
        return record

    # ------------------------------------------------------------------

    def _plan_shed(self, ring, rates):
        """Pick the arcs to shed: hottest names on the hottest partition,
        greedily, while the planned move set stays inside the budget, the
        hot partition keeps its arc floor, and — the part that makes this
        a *policy* rather than random churn — each shed must lower the
        predicted peak busy rate.  The prediction reassigns every moving
        name's measured heat from its source to its circle successor, so
        an arc whose names would just land on the second-hottest
        partition (or whose single dominant name *is* the peak and moves
        it wholesale) is rejected, not applied and regretted."""
        now = self.system.sim.now
        hot = rates.index(max(rates))
        name_busy = {
            name: busy for name, busy, _count in self.heat.name_heat(now)
        }
        hot_names = [
            name for name in name_busy if ring.partition_of(name) == hot
        ][:TOP_NAMES]
        if not hot_names:
            return None, [], []
        names = fabric_namespace(self.system.fabric)
        candidate = ring
        shed: List[Tuple[int, int]] = []
        moves: List = []
        peak = max(rates)
        arcs_left = len(candidate.arc_points()[hot])
        for name in hot_names:
            if len(shed) >= SHED_LIMIT or arcs_left <= MIN_ARCS:
                break
            if candidate.partition_of(name) != hot:
                continue  # an earlier shed already moved this name
            arc = candidate.vnode_of(name)
            if arc[0] != hot or arc in candidate.dropped:
                continue
            trial = candidate.shed_arc(*arc)
            trial_moves = plan_resize(ring, trial, names).moves
            if len(trial_moves) > MOVE_BUDGET:
                continue  # this arc carries too much namespace; next name
            predicted = list(rates)
            for move in trial_moves:
                heat_rate = name_busy.get(move.name, 0.0)
                predicted[move.src] -= heat_rate
                predicted[move.dst] += heat_rate
            if max(predicted) >= peak - 1e-12:
                continue  # would relocate or raise the peak, not shed it
            candidate, moves, peak = trial, trial_moves, max(predicted)
            shed.append(arc)
            arcs_left -= 1
        if not shed or not moves:
            return None, [], []
        return candidate, shed, moves

    def _p99_snapshot(self) -> Dict[str, float]:
        if self.slo is None:
            return {}
        return {
            cls: stats.latency.p99
            for cls, stats in sorted(self.slo.classes.items())
            if stats.completed > 0
        }

    def _publish(self, record: SweepRecord) -> None:
        obs = self.system.sim.obs
        if obs is None:
            return
        registry = obs.metrics
        self.heat.publish(registry, record.at,
                          active=self.system.fabric.ring.partitions)
        registry.gauge("rebalance.sweeps").set(float(len(self.records)))
        registry.gauge("rebalance.actions").set(float(self.actions))
        registry.gauge("rebalance.moves").set(float(self.moves_applied))
