"""Nodes: the processors of the simulated multiprocessor.

A :class:`Node` is a location.  Processes run *on* a node, mailboxes are
*owned by* a node, and the network model charges latency based on the
source and destination nodes of each message.  This is the machinery that
lets Bridge tools "export code to the data": a worker spawned on the node
that owns a disk exchanges only cheap local messages with that disk's LFS.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim import Mailbox, Process


class Port:
    """A mailbox bound to its owning node — the unit of addressability.

    Ports are what get passed around in messages (server addresses,
    worker lists, a client's reply mailbox).  Sending to a port goes
    through the machine's network model, which uses ``port.node`` for
    latency and calls ``port.deliver`` on arrival — the two names a
    one-shot :class:`~repro.sim.channel.ReplyCell` answers to as well.
    """

    __slots__ = ("node", "mailbox", "deliver")

    def __init__(self, node: "Node", mailbox: Mailbox) -> None:
        self.node = node
        self.mailbox = mailbox
        #: the mailbox's, bound once: re-seat both together
        self.deliver = mailbox.deliver

    @property
    def name(self) -> str:
        return self.mailbox.name

    def recv(self) -> Mailbox:
        """Waitable receive on the underlying mailbox (the mailbox itself)."""
        return self.mailbox

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Port({self.mailbox.name!r}@node{self.node.index})"


class Node:
    """One processor (with optional attached disk) of the machine."""

    def __init__(self, machine, index: int) -> None:
        self.machine = machine
        self.index = index
        self.name = f"node{index}"
        #: Set by the storage layer if a disk is attached to this node.
        self.disk = None
        #: Set by the EFS layer if an LFS instance runs on this node.
        self.lfs_port: Optional[Port] = None
        self._port_seq = 0

    # ------------------------------------------------------------------

    def port(self, name: Optional[str] = None) -> Port:
        """Create a fresh port (mailbox owned by this node)."""
        self._port_seq += 1
        label = name or f"{self.name}.port{self._port_seq}"
        return Port(self, Mailbox(self.machine.sim, label))

    def spawn(self, generator, name: str = "proc", daemon: bool = False) -> Process:
        """Run a process on this node (no spawn latency: local fork)."""
        return self.machine.sim.spawn(
            generator, name=f"{self.name}/{name}", daemon=daemon
        )

    # ------------------------------------------------------------------

    def send(self, port: Port, message: Any, size: int = 0) -> None:
        """Send ``message`` from this node to ``port`` through the
        machine's network model (fire and forget)."""
        machine = self.machine
        sim = machine.sim
        latency = machine.network.send(sim, self, port, message, size)
        if sim.obs is not None:
            sim.obs.on_send(self, port, message, size, latency)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.index}, {self.name!r})"
