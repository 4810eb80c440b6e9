"""The Bridge tool framework (paper section 4.2).

"Bridge tools are applications that become part of the file system...
Tools communicate with the Bridge Server to obtain structural information
from the Bridge directory.  Thereafter they have direct access to the LFS
level of the file system."  The typical interaction is (1) a brief phase
of communication with the Bridge Server to create/open files and learn
the LFS names, (2) the creation of subprocesses on all the LFS nodes, and
(3) a lengthy series of interactions between the subprocesses and the
LFS instances.

Worker start-up and completion travel through an embedded binary tree of
spawns, giving the O(log p) start-up/completion term in the copy tool's
O(n/p + log p) cost (section 5.1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.info import SystemInfo
from repro.core.partitioned import client_for
from repro.machine import Port

#: EFS file-number base reserved for tool scratch files, far above the
#: Bridge Server's allocation range.
SCRATCH_FILE_BASE = 10**9

#: One spec per worker: (machine node, generator, name).
WorkerSpec = Tuple[object, object, str]


def tree_spawn(machine, specs: Sequence[WorkerSpec]):
    """Run every worker, fanning out spawns through a binary tree.

    Returns (as a generator result) the list of worker results in spec
    order.  Start-up is O(log n) deep — each spawned wrapper forwards two
    subtrees before running its own body — and completion joins bubble
    back up the same tree.
    """
    if not specs:
        return []
    root = machine.sim.spawn(
        _tree_node(machine, list(specs)), name=f"{specs[0][2]}.tree"
    )
    results = yield root.join()
    return results


def _tree_node(machine, specs: List[WorkerSpec]):
    node, generator, name = specs[0]
    rest = specs[1:]
    mid = len(rest) // 2
    children = []
    for half in (rest[:mid], rest[mid:]):
        if half:
            child = yield machine.spawn_remote(
                half[0][0], _tree_node(machine, half), name=f"{half[0][2]}.tree"
            )
            children.append(child)
    own = yield from generator
    results = [own]
    for child in children:
        child_results = yield child.join()
        results.extend(child_results)
    return results


class Tool:
    """Base class for Bridge tools.

    A tool lives on a node (usually the front end), bootstraps itself with
    Get Info, manages files through the Bridge Server, and exports worker
    code to the LFS nodes with :meth:`run_workers`.
    """

    name = "tool"

    def __init__(self, node, server_port: Port, config: SystemConfig) -> None:
        self.node = node
        self.machine = node.machine
        # A plain server Port or the fabric router: the tool's server
        # phase speaks through the one client built for it (per-name ops
        # reach the owning partition, Get Info merges across all).
        self.server_port = server_port
        self.client = client_for(node, server_port, name=self.name)
        self.config = config
        self.system_info: Optional[SystemInfo] = None

    # ------------------------------------------------------------------
    # Phase 1 helpers: talk to the Bridge Server
    # ------------------------------------------------------------------

    def get_info(self):
        """Fetch (and keep) the middle-layer structure package."""
        self.system_info = yield from self.client.get_info()
        return self.system_info

    def lfs_slot_of_node(self, node_index: int) -> int:
        """Index into the system LFS list for a machine node."""
        if self.system_info is None:
            raise RuntimeError("call get_info() before resolving LFS slots")
        for slot, handle in enumerate(self.system_info.lfs):
            if handle.node_index == node_index:
                return slot
        raise ValueError(f"no LFS instance on node {node_index}")

    def node_of(self, node_index: int):
        """The machine node object for a node index."""
        return self.machine.node(node_index)

    # ------------------------------------------------------------------
    # Phase 2/3 helpers: export code to the data
    # ------------------------------------------------------------------

    def run_workers(self, specs: Sequence[WorkerSpec]):
        """Start one worker per spec on its node and wait for all results."""
        return (yield from tree_spawn(self.machine, specs))
