"""The simulated multiprocessor: nodes + interconnect + remote spawn."""

from __future__ import annotations

from typing import List

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.errors import NoSuchNodeError
from repro.machine.network import ButterflyNetwork
from repro.machine.node import Node
from repro.sim import Simulator


class Machine:
    """A collection of nodes joined by a network model.

    This replaces the BBN Butterfly: processors are :class:`Node` objects,
    Chrysalis message passing is :meth:`Node.send` through the network model,
    and creating a process on another node costs ``config.cpu.spawn``.
    """

    def __init__(
        self,
        sim: Simulator,
        node_count: int,
        config: SystemConfig = DEFAULT_CONFIG,
        network=None,
    ) -> None:
        if node_count < 1:
            raise ValueError(f"machine needs at least one node, got {node_count}")
        self.sim = sim
        self.config = config
        self.network = network or ButterflyNetwork(config.messages)
        self.nodes: List[Node] = [Node(self, i) for i in range(node_count)]

    # ------------------------------------------------------------------

    def node(self, index: int) -> Node:
        """The node with the given index, or :class:`NoSuchNodeError`."""
        if not 0 <= index < len(self.nodes):
            raise NoSuchNodeError(f"node {index} (machine has {len(self.nodes)})")
        return self.nodes[index]

    # ------------------------------------------------------------------

    def spawn_remote(
        self, dst_node: Node, generator, name: str = "worker"
    ) -> "_RemoteSpawn":
        """Waitable that creates a process on ``dst_node`` after spawn cost.

        Usage from a tool process::

            worker = yield machine.spawn_remote(lfs_node, body(), "ecopy")

        The yielded value is the new :class:`~repro.sim.Process`.
        """
        return _RemoteSpawn(self, dst_node, generator, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Machine({len(self.nodes)} nodes, {type(self.network).__name__})"


class _RemoteSpawn:
    """Waitable for :meth:`Machine.spawn_remote`."""

    __slots__ = ("machine", "dst_node", "generator", "name")

    def __init__(self, machine: Machine, dst_node: Node, generator, name: str) -> None:
        self.machine = machine
        self.dst_node = dst_node
        self.generator = generator
        self.name = name

    def _wait(self, process) -> None:
        # The spawn callback runs outside any process step, where the
        # observability "current span" is stale; capture the requester's
        # context now so the remote process inherits the right parent.
        obs = self.machine.sim.obs
        ctx = obs.current if obs is not None else None

        def do_spawn(_arg):
            if obs is not None:
                obs.current = ctx
            new_process = self.dst_node.spawn(self.generator, name=self.name)
            process._step(new_process)

        delay = self.machine.config.cpu.spawn
        self.machine.sim.call_later(delay, do_spawn)
