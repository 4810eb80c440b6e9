"""System builders: assemble a complete simulated Bridge installation.

The canonical layout mirrors the paper's Figure 2: nodes ``0..p-1`` each
carry a disk and an LFS (EFS) instance; one extra node hosts the Bridge
Server; one more hosts client/controller processes (the "front end").
Tool workers are spawned onto the LFS nodes at run time, which is the
whole point of the tool interface.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core import (
    BridgeClient,
    BridgeServer,
    JobController,
    LFSHandle,
    PartitionedBridge,
    PartitionedClient,
    RelayServer,
)
from repro.efs import EFSClient, EFSServer
from repro.machine import Machine
from repro.sim import Simulator
from repro.storage import BlockStoreABC, make_driver, storage_specs


class BridgeSystem:
    """A fully wired Bridge installation on a simulated machine."""

    def __init__(
        self,
        lfs_count: int,
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        disk_capacity_blocks: int = 65_536,
        disk_latency=None,
        storage=None,
        network=None,
        with_relays: bool = True,
        bridge_server_count: int = 1,
        redundancy: str = "none",
        rebuild_rate=None,
        prefetch_window: Optional[int] = None,
        bridge_cache_blocks: Optional[int] = None,
        obs=False,
        trace_export: Optional[str] = None,
        admission=None,
        elastic=None,
        rebalance=None,
    ) -> None:
        if lfs_count < 1:
            raise ValueError("a Bridge system needs at least one LFS node")
        if bridge_server_count < 1:
            raise ValueError("need at least one Bridge Server")
        # S22: ``elastic`` makes the fabric resizable online.  ``None``
        # (the default) is the rigid seed fabric — mod-k routing, no
        # extra nodes, byte-identical event sequence.  ``True`` routes
        # by consistent hash over ``bridge_server_count`` partitions
        # (shrinkable/regrowable in place); an int additionally
        # *provisions* that many server nodes up front so the fabric can
        # grow past its starting count (idle provisioned servers cost
        # nothing in the event sequence until the ring routes to them).
        self.elastic = elastic not in (None, False)
        # S24: ``rebalance`` installs the heat-driven control plane.
        # ``None``/``False`` (the default) runs without heat accounting or
        # a rebalancer — the seed event sequence exactly.  ``True`` uses
        # the default RebalanceConfig; a RebalanceConfig or a dict of its
        # fields overrides it.  Rebalancing steers the consistent-hash
        # ring, so it implies ``elastic`` (a rigid mod-k fabric has no
        # arcs to shed).
        self._rebalance_spec = rebalance if rebalance not in (None, False) else None
        if self._rebalance_spec is not None and not self.elastic:
            self.elastic = True
        provisioned = bridge_server_count
        if self.elastic and elastic not in (None, False, True):
            provisioned = int(elastic)
            if provisioned < bridge_server_count:
                raise ValueError(
                    f"elastic={provisioned} provisions fewer servers than "
                    f"bridge_server_count={bridge_server_count}"
                )
        self.config = config or DEFAULT_CONFIG
        # S18 knobs: override the config without forcing callers to build
        # a SystemConfig by hand.  Defaults (None) leave the config as-is,
        # which is cache-off / prefetch-off unless the config says else.
        overrides = {}
        if prefetch_window is not None:
            overrides["prefetch_window"] = prefetch_window
        if bridge_cache_blocks is not None:
            overrides["bridge_cache_blocks"] = bridge_cache_blocks
        if overrides:
            self.config = self.config.with_changes(**overrides)
        # S19 observability: ``obs=True`` attaches a fresh Observability,
        # ``obs=<instance>`` attaches a caller-provided one, ``obs=False``
        # (the default) runs bare — same event sequence either way.
        # ``trace_export`` names a Chrome-trace JSON file that run()
        # writes after each driver completes (implies obs).
        from repro.obs import Observability

        if obs is True or (obs is False and trace_export is not None):
            obs = Observability()
        elif obs is False:
            obs = None
        self.obs = obs
        self.trace_export = trace_export
        self.sim = Simulator(seed=seed, obs=obs)
        # ``network`` may be an instance or a factory taking the simulator
        # (e.g. ``EthernetNetwork`` itself, whose bus process needs the sim).
        if callable(network):
            network = network(self.sim)
        # p LFS nodes + k server nodes (provisioned) + 1 client node
        self.machine = Machine(
            self.sim,
            lfs_count + provisioned + 1,
            config=self.config,
            network=network,
        )
        self.lfs_nodes = [self.machine.node(i) for i in range(lfs_count)]
        self.server_nodes = [
            self.machine.node(lfs_count + i) for i in range(provisioned)
        ]
        self.server_node = self.server_nodes[0]
        self.client_node = self.machine.node(lfs_count + provisioned)

        # S25: every LFS node's device is built by the driver registry.
        # ``storage=`` takes one spec or a per-node list (heterogeneous
        # fabrics); unset, the default ``ram`` driver reproduces the seed
        # event sequence byte-for-byte.  ``disk_latency`` stays the
        # caller-level default for latency-model drivers.
        self.storage_specs = storage_specs(storage, lfs_count)
        self.disks: List[BlockStoreABC] = []
        self.efs_servers: List[EFSServer] = []
        self.relays: List[RelayServer] = []
        for node, spec in zip(self.lfs_nodes, self.storage_specs):
            disk = make_driver(
                spec, self.sim, name=f"disk{node.index}",
                capacity_blocks=disk_capacity_blocks,
                default_latency=disk_latency,
            )
            disk.heat_slot = node.index
            self.disks.append(disk)
            efs = EFSServer(node, disk, self.config)
            self.efs_servers.append(efs)
            if with_relays:
                self.relays.append(RelayServer(node, efs.port, self.config))

        handles = [LFSHandle(n.index, s.port) for n, s in zip(self.lfs_nodes, self.efs_servers)]
        relay_ports = [r.port for r in self.relays] if with_relays else None
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
        # routes everything to that server.  Elastic systems route by a
        # seeded consistent-hash ring over the *active* count instead of
        # the seed's mod-k map, so resizes move only the reassigned arcs.
        ring = None
        if self.elastic:
            from repro.elastic.ring import ConsistentHashRing

            ring = ConsistentHashRing(bridge_server_count, seed=seed)
        self.fabric = PartitionedBridge(self.bridges, ring=ring)

        # S24 load-aware rebalancing: heat accounting on every bridge
        # (a seam in the base server loop — no events scheduled) plus
        # the policy process, built but not started; experiments spawn
        # ``system.rebalancer.run(duration)`` next to their traffic.
        self.heat = None
        self.rebalancer = None
        if self._rebalance_spec is not None:
            from repro.rebalance import HeatMap, RebalanceConfig, Rebalancer

            spec = self._rebalance_spec
            if spec is True:
                rb_config = RebalanceConfig()
            elif isinstance(spec, RebalanceConfig):
                rb_config = spec
            elif isinstance(spec, dict):
                rb_config = RebalanceConfig(**spec)
            else:
                raise ValueError(
                    f"rebalance= takes True, a RebalanceConfig, or a dict "
                    f"of its fields, not {spec!r}"
                )
            self.heat = HeatMap(len(self.bridges))
            for index, bridge in enumerate(self.bridges):
                bridge.heat = self.heat
                bridge.heat_partition = index
            self.rebalancer = Rebalancer(self, self.heat, config=rb_config)

        # Redundancy scheme knob (S16): every experiment can run the same
        # workload unprotected, mirrored (2x), or parity-protected
        # (p/(p-1)x).  The manager also receives the fault injector's
        # fail/repair notifications and auto-starts online rebuilds.
        from repro.redundancy.manager import RedundancyManager

        self.redundancy = RedundancyManager(
            self, redundancy, rebuild_rate=rebuild_rate
        )

        # S21 admission control: ``None`` (the default) leaves every
        # server policy-free — the seed event sequence exactly.  A spec
        # (policy name or dict, see repro.traffic.build_admission) builds
        # one independent control per partition; experiments that must
        # not rate-limit their own setup instead call
        # ``install_admission`` after building their catalog.
        if admission is not None:
            self.install_admission(admission)

        if self.obs is not None:
            self._bind_observability()

    def install_admission(self, spec) -> None:
        """(Re)install an admission policy on every Bridge partition."""
        from repro.traffic.admission import build_admission

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
        """Adopt component counters into the registry; tag disks with
        their owning node for span/export grouping."""
        registry = self.obs.metrics
        for disk, node in zip(self.disks, self.lfs_nodes):
            disk.obs_node = node.index
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
        if len(self.bridges) > 1 or self.elastic:
            return self.partitioned_client(node)
        return BridgeClient(node or self.client_node, self.bridge.port)

    def partitioned_client(self, node=None) -> PartitionedClient:
        """A client routing by name across all Bridge Server partitions."""
        return PartitionedClient(node or self.client_node, self.fabric)

    def job_controller(self, node=None, name: str = "controller") -> JobController:
        """A parallel-view controller; partition-routed on a fabric."""
        return JobController(node or self.client_node, self.server_target(),
                             name=name)

    def server_target(self):
        """What to hand anything that takes a ``server_port``: the single
        server's port, or the fabric router at bridge_server_count > 1
        (tools and job controllers resolve partitions per name).
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
        from repro.elastic.migrate import FabricResizer

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
        if self.trace_export is not None and self.obs is not None:
            from repro.obs import export_chrome_trace

            export_chrome_trace(self.obs, self.trace_export)
        return result

    # ------------------------------------------------------------------

    def attach_storage_heat(self, heat) -> None:
        """Install a :class:`~repro.rebalance.heat.HeatMap` keyed by LFS
        slot on every storage driver (S24-style busy attribution at the
        device layer; schedules no events)."""
        for slot, disk in enumerate(self.disks):
            disk.heat = heat
            disk.heat_slot = slot

    def total_disk_ops(self) -> int:
        return sum(d.total_operations for d in self.disks)

    def disk_utilizations(self) -> List[float]:
        return [d.utilization() for d in self.disks]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BridgeSystem(p={self.width}, now={self.sim.now:.3f}s)"


def build_system(lfs_count: int, **kwargs) -> BridgeSystem:
    """Convenience alias used throughout the examples and benches."""
    return BridgeSystem(lfs_count, **kwargs)


def paper_system(lfs_count: int, seed: int = 0, **kwargs) -> BridgeSystem:
    """The paper's configuration: 15 ms fixed-latency Wren-class disks.

    Since S25 that *is* the default driver spec
    (:data:`repro.storage.DEFAULT_ACCESS_TIME` through the ``ram``
    driver), so this is a named alias for the default build — ``storage=``
    and every other knob pass through."""
    return BridgeSystem(lfs_count, seed=seed, **kwargs)


def acceptance_system(obs=True, trace_export=None, **kwargs) -> BridgeSystem:
    """The span-baseline acceptance configuration (see
    :mod:`repro.workloads.acceptance`): p = 4 paper system, defaults."""
    return paper_system(4, seed=0, obs=obs, trace_export=trace_export,
                        **kwargs)
