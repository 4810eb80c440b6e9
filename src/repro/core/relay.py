"""Embedded-binary-tree broadcast relays (section 4.5).

The paper notes Create's "almost linear increase in overhead for
additional processors" and that "performance could be improved somewhat
by sending startup and completion messages through an embedded binary
tree."  A :class:`RelayServer` on each LFS node makes that improvement
real: the Bridge Server hands the whole per-slot work list to the first
relay, each relay performs its own slot's call against its local EFS and
forwards the two halves of the remainder to the relays heading them.
Completion acks flow back up the same tree, so both start-up and
completion are O(log p) deep.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.machine import Port, Server, gather
from repro.sim import Timeout


class RelayServer(Server):
    """Per-node broadcast relay for tree-structured file management."""

    def __init__(self, node, efs_port: Port, config: SystemConfig) -> None:
        super().__init__(node, f"relay{node.index}")
        self.efs_port = efs_port
        self.config = config

    def op_relay(self, entries, relay_method):
        """Handle ``entries[0]`` locally, forward halves of the rest.

        Each entry is ``{"efs_port", "relay_port", "args"}``; returns the
        list of per-entry results in entry order.
        """
        if not entries:
            return []
        mine, rest = entries[0], entries[1:]
        mid = len(rest) // 2
        halves = [half for half in (rest[:mid], rest[mid:]) if half]
        calls = [(mine["efs_port"], relay_method, mine["args"], 0)]
        for half in halves:
            yield Timeout(self.config.cpu.bridge_create_dispatch)
            calls.append(
                (half[0]["relay_port"], "relay",
                 {"entries": half, "relay_method": relay_method}, 0)
            )
        results = yield from gather(self.node, calls)
        own_result, child_results = results[0], results[1:]
        ordered = [own_result]
        for child in child_results:
            ordered.extend(child)
        return ordered
