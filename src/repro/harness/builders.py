"""System builders: assemble a complete simulated Bridge installation.

The canonical layout mirrors the paper's Figure 2: nodes ``0..p-1`` each
carry a disk and an LFS (EFS) instance; one extra node hosts the Bridge
Server; one more hosts client/controller processes (the "front end").
Tool workers are spawned onto the LFS nodes at run time, which is the
whole point of the tool interface.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import (
    BridgeServer,
    LFSHandle,
    PartitionedBridge,
    PartitionedClient,
    RelayServer,
    client_for,
)
from repro.core.ring import ModuloRing
from repro.efs import EFSClient, EFSServer
from repro.elastic import FabricResizer, HeatMap, Rebalancer, make_ring
from repro.harness.spec import SystemSpec
from repro.machine import NETWORK_KINDS, Machine
from repro.obs import Observability, export_chrome_trace
from repro.redundancy import RedundancyManager
from repro.sim import Simulator
from repro.storage import BlockStoreABC, make_driver
from repro.traffic import build_admission


class BridgeSystem:
    """A fully wired Bridge installation on a simulated machine.

    Built from a :class:`~repro.harness.spec.SystemSpec` (kept as
    ``self.spec``); ``BridgeSystem(p, **keywords)`` is sugar for
    ``BridgeSystem(SystemSpec.from_keywords(p, **keywords))``.  Every
    field at its default builds the seed system — same event sequence,
    span for span."""

    def __init__(self, spec, **keywords) -> None:
        if not isinstance(spec, SystemSpec):
            spec = SystemSpec.from_keywords(spec, **keywords)
        elif keywords:
            raise TypeError("keywords are sugar for a spec: pass one or the other")
        self.spec = spec
        self.config = spec.config
        #: Elastic systems route by the resizable consistent-hash ring.
        self.elastic = spec.ring != ModuloRing.kind
        self.obs = Observability() if spec.obs else None
        self.sim = Simulator(seed=spec.seed, obs=self.obs)
        # p LFS nodes + the provisioned server nodes + 1 client node
        servers = spec.bridge_server_count + spec.spare_servers
        self.machine = Machine(
            self.sim,
            spec.lfs_count + servers + 1,
            config=self.config,
            network=NETWORK_KINDS[spec.network](self.sim, self.config),
        )
        self.lfs_nodes = [self.machine.node(i) for i in range(spec.lfs_count)]
        self.server_nodes = [
            self.machine.node(spec.lfs_count + i) for i in range(servers)
        ]
        self.server_node = self.server_nodes[0]
        self.client_node = self.machine.node(spec.lfs_count + servers)

        # S25: every LFS node's device is built by the driver registry.
        self.disks: List[BlockStoreABC] = []
        self.efs_servers: List[EFSServer] = []
        self.relays: List[RelayServer] = []
        for node, driver_spec in zip(self.lfs_nodes, spec.storage):
            disk = make_driver(driver_spec, self.sim, name=f"disk{node.index}")
            disk.heat_slot = node.index
            self.disks.append(disk)
            efs = EFSServer(node, disk, self.config)
            self.efs_servers.append(efs)
            self.relays.append(RelayServer(node, efs.port, self.config))

        handles = [LFSHandle(n.index, s.port) for n, s in zip(self.lfs_nodes, self.efs_servers)]
        relay_ports = [r.port for r in self.relays]
        self.bridges = [
            BridgeServer(
                node, handles, self.config, relay_ports=relay_ports,
                name=f"bridge{index}" if index else "bridge",
                file_id_start=index + 1,
                file_id_step=len(self.server_nodes),
            )
            for index, node in enumerate(self.server_nodes)
        ]
        self.bridge = self.bridges[0]
        # S20: the partitioned fabric router.  Every surface (naive
        # clients, job controllers, tools, redundancy wrappers) accepts
        # it in place of a single server port; with one server it simply
        # routes everything to that server.  The ring covers the *active*
        # partitions; idle provisioned servers cost nothing in the event
        # sequence until a resize routes to them.
        self.fabric = PartitionedBridge(self.bridges, ring=make_ring(
            spec.ring, spec.bridge_server_count, seed=spec.seed))

        # S24 load-aware rebalancing: heat accounting on every bridge
        # (a seam in the base server loop — no events scheduled) plus
        # the policy process, built but not started; experiments spawn
        # ``system.rebalancer.run(duration)`` next to their traffic.
        self.heat = None
        self.rebalancer = None
        if spec.rebalance is not None:
            self.heat = HeatMap(len(self.bridges))
            for index, bridge in enumerate(self.bridges):
                bridge.heat = self.heat
                bridge.heat_partition = index
            self.rebalancer = Rebalancer(self, self.heat, config=spec.rebalance)

        # S16: the fault injector tells the manager of each repair, and
        # under parity the manager auto-starts the online rebuild.
        self.redundancy = RedundancyManager(self, spec.redundancy)

        if self.obs is not None:
            self._bind_observability()

    def install_admission(self, spec) -> None:
        """(Re)install an admission policy on every Bridge partition
        (a spec for :func:`repro.traffic.build_admission`; one
        independent control each).  Experiments call this after building
        their catalog, so setup is never rate-limited."""
        for bridge in self.bridges:
            bridge.install_admission(build_admission(spec))

    def admission_counters(self):
        """Aggregated per-class admission outcomes across partitions
        (``None`` when no partition has a control installed)."""
        live = [b.admission for b in self.bridges if b.admission is not None]
        if not live:
            return None
        totals = {"offered": {}, "admitted": {}, "throttled": {}, "shed": {}}
        for control in live:
            for key, table in control.counters().items():
                bucket = totals[key]
                for cls, count in table.items():
                    bucket[cls] = bucket.get(cls, 0) + count
        return {key: dict(sorted(table.items()))
                for key, table in totals.items()}

    def _bind_observability(self) -> None:
        """Adopt component counters and each disk's wait/service
        histograms into the registry; tag disks with their owning node
        for span/export grouping."""
        registry = self.obs.metrics
        for disk, node in zip(self.disks, self.lfs_nodes):
            disk.obs_node = node.index
            registry.adopt(f"{disk.name}.wait", disk.wait_times)
            registry.adopt(f"{disk.name}.service", disk.service_times)
        for node, efs in zip(self.lfs_nodes, self.efs_servers):
            efs.cache.bind_metrics(registry, prefix=f"efs.{node.index}.cache")
        for bridge in self.bridges:
            if bridge._cache is not None:
                bridge._cache.bind_metrics(
                    registry, prefix=f"{bridge.name}.cache"
                )

    # ------------------------------------------------------------------

    @property
    def width(self) -> int:
        """p: the number of LFS instances."""
        return len(self.efs_servers)

    def naive_client(self, node=None):
        """A naive-view client, by default on the front-end node.

        On a multi-server fabric this returns the partition-routed
        client (the full ``BridgeClient`` surface, routed by name), so
        every naive-view consumer — including the S16 redundancy
        wrappers — works unchanged at ``bridge_server_count > 1``.
        Elastic systems always route through the fabric (the owner of a
        name can change under a live resize)."""
        return client_for(node or self.client_node, self.server_target())

    def partitioned_client(self) -> PartitionedClient:
        """A client routing by name across all Bridge Server partitions."""
        return PartitionedClient(self.client_node, self.fabric)

    def server_target(self):
        """What to hand anything that takes a ``server_port``: the single
        server's port, or the fabric router at bridge_server_count > 1
        (:func:`~repro.core.client_for` builds the matching client).
        Elastic systems always hand out the fabric."""
        if len(self.bridges) > 1 or self.elastic:
            return self.fabric
        return self.bridge.port

    def resize_fabric(self, new_count: int,
                      moves_per_second: Optional[float] = None,
                      forward_window: Optional[float] = 0.25):
        """Generator: resize the fabric to ``new_count`` active
        partitions while it serves traffic (S22).

        Drive it inside the running simulation — spawned next to a
        workload (``system.client_node.spawn(system.resize_fabric(4))``)
        or as its own driver (``system.run(system.resize_fabric(4))``).
        ``moves_per_second`` throttles the migration sweep;
        ``forward_window`` is how long old-route redirects stay up after
        the sweep.  Returns a
        :class:`~repro.elastic.migrate.MigrationReport`.
        """
        resizer = FabricResizer(self, moves_per_second=moves_per_second,
                                forward_window=forward_window)
        report = yield from resizer.resize(new_count)
        return report

    def redundant_file(self, name: str):
        """A file wrapper under this system's redundancy scheme: a
        :class:`~repro.redundancy.manager.PlainFile`,
        :class:`~repro.redundancy.mirror.MirroredFile`, or
        :class:`~repro.redundancy.parity.ParityFile`."""
        return self.redundancy.file(name)

    def efs_client(self, slot: int, node=None) -> EFSClient:
        """A direct EFS client for LFS ``slot`` (tool-style access)."""
        target = self.efs_servers[slot]
        return EFSClient(node or self.lfs_nodes[slot], target.port)

    def run(self, generator, name: str = "main"):
        """Spawn a driver process and run the simulation to completion.

        With ``trace_export`` set, the accumulated span tree is written
        as Chrome trace-event JSON after the driver finishes (each run
        overwrites the file with the trace so far)."""
        result = self.sim.run_process(generator, name=name)
        if self.spec.trace_export is not None:
            export_chrome_trace(self.obs, self.spec.trace_export)
        return result

    # ------------------------------------------------------------------

    def drop_efs_caches(self) -> None:
        """Flush and invalidate every LFS block cache, so the next access
        reaches the device (run before failing a disk or measuring device
        traffic).  Runs the simulation; call it between drivers."""
        for efs in self.efs_servers:
            self.run(efs.cache.flush(), name="flush")
            efs.cache.invalidate_all()

    def attach_storage_heat(self, heat) -> None:
        """Install a :class:`~repro.elastic.heat.HeatMap` keyed by LFS
        slot on every storage driver (S24-style busy attribution at the
        device layer; schedules no events)."""
        for slot, disk in enumerate(self.disks):
            disk.heat = heat
            disk.heat_slot = slot

    def total_disk_ops(self) -> int:
        return sum(d.total_operations for d in self.disks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BridgeSystem(p={self.width}, now={self.sim.now:.3f}s)"


def paper_system(lfs_count: int, seed: int = 0, **keywords) -> BridgeSystem:
    """The paper's configuration — 15 ms fixed-latency Wren-class disks,
    one Bridge Server — which is what every :class:`SystemSpec` default
    builds (the ``paper`` preset), so this is a named alias for
    ``BridgeSystem(lfs_count, seed=seed, **keywords)``."""
    return BridgeSystem(lfs_count, seed=seed, **keywords)
