"""S22: the online migration sweep.

:class:`FabricResizer` resizes a live :class:`~repro.core.partitioned.PartitionedBridge`
without pausing traffic.  One resize is three steps:

1. **Plan + flip (atomic).**  Collect the namespace from every
   provisioned partition, diff old ring -> new ring
   (:func:`~repro.elastic.plan.plan_resize`), install a *forwarding
   entry* on each move's destination (``dst.forward_to[name] = src
   port``), and swap the fabric's ring — all without yielding, so no
   request can ever observe the new ring without the forwarding net
   under it.  From this instant new arrivals route by the new ring; a
   request landing on the destination before its entry has moved is
   redirected to the source by the base server loop (the double-read
   forwarding window), never failed.
2. **Sweep (throttled).**  One ``migrate_in`` RPC per planned move, in
   deterministic (sorted-name) order, optionally spaced by
   ``moves_per_second`` so migration shares the fabric with foreground
   traffic.  The destination server itself pulls the entry with a nested
   ``migrate_out`` to the source: the source removes the entry, cursor
   and hints, bumps its S18 block-cache generation (evicting every
   cached block of the name, so no stale data can be installed later),
   and installs the *reverse* forwarding entry — in-flight requests
   routed by the old ring chase the entry to its new home.  Because a
   server is a single simulated process, any request that raced into
   the destination's mailbox during the pull is dispatched only after
   the entry has landed.
3. **Retire the window.**  After the sweep the resizer waits
   ``forward_window`` simulated seconds (longer than any in-flight
   envelope) and deletes the source-side forwarding entries it
   installed, returning both servers to forwarding-free hot paths.

Observability: each move emits an S19 client span
(``elastic.move``, with name/src/dst/moved args) under one
``elastic.resize`` root, and the ``elastic.migration.progress`` gauge
tracks sweep completion in [0, 1].  With elasticity off none of this
code runs, which is how the committed acceptance trace stays
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.elastic.plan import MigrationPlan, fabric_namespace, plan_resize
from repro.machine import gather
from repro.sim import Timeout


@dataclass
class MigrationReport:
    """Accounting for one completed resize."""

    old_partitions: int
    new_partitions: int
    planned: int  # moves in the plan
    moved: int  # entries actually relocated
    vanished: int  # entries deleted mid-sweep (nothing to move)
    forwarded: int  # requests redirected during the window (fabric-wide)
    started_at: float  # simulated seconds (ring flip)
    finished_at: float  # simulated seconds (window retired)
    moves_per_second: Optional[float]
    plan: MigrationPlan

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def direction(self) -> str:
        if self.new_partitions > self.old_partitions:
            return "grow"
        if self.new_partitions < self.old_partitions:
            return "shrink"
        # S24 arc-shedding resizes keep the partition count fixed but
        # still relocate entries; a same-size sweep with no moves is a
        # true no-op.
        return "rebalance" if self.planned else "noop"


class FabricResizer:
    """Drives online resizes of one system's partitioned fabric.

    ``moves_per_second`` throttles the sweep (``None`` = move-after-move
    as fast as the RPCs complete); ``forward_window`` is how long the
    source-side redirects outlive the sweep (``None`` = keep them
    forever — correct but permanently pays the forwarding probe).
    """

    def __init__(self, system, moves_per_second: Optional[float] = None,
                 forward_window: Optional[float] = 0.25) -> None:
        if moves_per_second is not None and moves_per_second <= 0:
            raise ValueError("moves_per_second must be positive")
        self.system = system
        self.moves_per_second = moves_per_second
        self.forward_window = forward_window
        self.reports = []

    def resize(self, new_count: int):
        """Generator: run one resize to ``new_count`` active partitions.

        Drive inside the running simulation (spawned next to traffic, or
        via ``system.run``); returns a :class:`MigrationReport`.
        """
        ring = self.system.fabric.ring.with_partitions(new_count)
        return (yield from self.apply(ring))

    def apply(self, new_ring):
        """Generator: migrate the live fabric onto ``new_ring``.

        The general entry point :meth:`resize` delegates to — any ring
        compatible with the planner works, including the S24 same-size
        arc-shed rings, so the rebalancer reuses the exact
        plan+flip/sweep/retire machinery (and its safety argument) that
        grows and shrinks do.
        """
        system = self.system
        fabric = system.fabric
        sim = system.sim
        servers = fabric.servers
        if not 1 <= new_ring.partitions <= len(servers):
            raise ValueError(
                f"ring partitions {new_ring.partitions} outside "
                f"provisioned fabric [1, {len(servers)}]"
            )
        old_ring = fabric.ring
        plan = plan_resize(old_ring, new_ring, fabric_namespace(fabric))
        forwarded_before = sum(server.forwarded for server in servers)

        # Atomic plan+flip: no yields between installing the forwarding
        # net and swapping the ring, so the new routing is never visible
        # without its redirects.
        for move in plan.moves:
            servers[move.dst].forward_to[move.name] = servers[move.src].port
        fabric.set_ring(new_ring)
        started = sim.now

        obs = sim.obs
        resize_span = None
        gauge = None
        if obs is not None:
            resize_span = obs.begin(
                "elastic.resize", "client", node=system.client_node.index
            )
            obs.set_current(resize_span)
            gauge = obs.metrics.gauge("elastic.migration.progress")
            gauge.set(0.0 if plan.moves else 1.0)

        gap = (1.0 / self.moves_per_second) if self.moves_per_second else 0.0
        moved = vanished = 0
        node = system.client_node
        for index, move in enumerate(plan.moves):
            if gap > 0.0:
                yield Timeout(gap)
            move_span = None
            if obs is not None:
                move_span = obs.begin("elastic.move", "client",
                                      node=node.index)
                obs.set_current(move_span)
            results = yield from gather(node, [
                (servers[move.dst].port, "migrate_in",
                 {"name": move.name, "src_port": servers[move.src].port}, 0)
            ])
            if results[0]:
                moved += 1
            else:
                vanished += 1
            if obs is not None:
                obs.end(move_span, name=move.name, src=move.src,
                        dst=move.dst, moved=bool(results[0]))
                obs.set_current(resize_span)
            if gauge is not None:
                gauge.set((index + 1) / len(plan.moves))

        # Retire the double-read window: only entries still pointing at
        # the planned destination are removed (a concurrent create or a
        # later resize may have repurposed the slot).
        if self.forward_window is not None and plan.moves:
            yield Timeout(self.forward_window)
            for move in plan.moves:
                src = servers[move.src]
                if src.forward_to.get(move.name) is servers[move.dst].port:
                    del src.forward_to[move.name]

        if obs is not None:
            obs.end(resize_span, old=plan.old_partitions,
                    new=plan.new_partitions, planned=len(plan.moves),
                    moved=moved)
            obs.set_current(None)

        report = MigrationReport(
            old_partitions=plan.old_partitions,
            new_partitions=plan.new_partitions,
            planned=len(plan.moves),
            moved=moved,
            vanished=vanished,
            forwarded=sum(s.forwarded for s in servers) - forwarded_before,
            started_at=started,
            finished_at=sim.now,
            moves_per_second=self.moves_per_second,
            plan=plan,
        )
        self.reports.append(report)
        return report
