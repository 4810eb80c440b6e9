"""Two-phase collective reads (S17).

A job of ``t`` workers each holding a *noncontiguous* block list is
the worst case for per-block RPC: poorly aligned per-worker lists turn
into thousands of tiny requests criss-crossing the interconnect.  The
two-phase scheme (cf. ViPIOS and ROMIO's collective buffering) fixes the
alignment first and moves data second:

* **Phase 1 — exchange & election.**  Workers exchange their block
  lists; one *aggregator* is elected per touched LFS slot, aligned
  to the interleave, and spawned *on that LFS node* (the tool-view trick:
  ship code to data).  Each aggregator receives the merged block list for
  its slot.
* **Phase 2 — aligned access & redistribution.**  Each aggregator issues
  exactly **one** batched ``read_blocks`` request to its *local* EFS —
  each LFS sees a single sorted run instead of t interleaved dribbles —
  and the data is redistributed from aggregators to workers over the
  interconnect, one sized message per (worker, slot) pair.

The result: ``A <= p`` EFS requests total (versus one per block), every
EFS request local to its disk, and all cross-machine traffic batched into
at most ``A * t`` sized messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.addressing import InterleaveMap
from repro.efs.client import EFSClient
from repro.errors import BridgeBadRequestError
from repro.machine import Client


#: Modeled wire bytes per block address in an exchanged request descriptor.
DESCRIPTOR_BYTES_PER_BLOCK = 8


@dataclass
class CollectiveStats:
    """Accounting of one collective operation."""

    workers: int
    aggregators: int
    blocks: int  # distinct global blocks moved
    efs_requests: int  # batched EFS requests issued (one per aggregator)
    exchange_messages: int  # phase-1 descriptor shipments
    redistribution_messages: int  # phase-2 (worker, slot) data messages
    bytes_redistributed: int
    elapsed: float


def elect_aggregators(
    interleave: InterleaveMap, per_worker_blocks: Sequence[Sequence[int]]
) -> Dict[int, Dict[int, List[int]]]:
    """The exchange outcome: ``{slot: {worker: [global blocks]}}``.

    One aggregator per touched slot, aligned to the interleave — the
    election rule that guarantees each LFS sees exactly one batched
    request.  Worker block lists keep request order (duplicates removed).
    """
    assignment: Dict[int, Dict[int, List[int]]] = {}
    for worker, blocks in enumerate(per_worker_blocks):
        seen = set()
        for block in blocks:
            if block in seen:
                continue
            seen.add(block)
            slot = interleave.slot_of(block)
            assignment.setdefault(slot, {}).setdefault(worker, []).append(block)
    return assignment


class TwoPhaseIO:
    """Two-phase collective reads over one Bridge file.

    Create with a :class:`~repro.harness.builders.BridgeSystem` and a
    file name; drive :meth:`read` inside a simulated process.  The
    engine plays the job-controller role: it opens the file through the
    Bridge Server (structure only — block traffic never touches the
    central server), spawns aggregators on the LFS nodes, and collects
    the redistributed data for the workers.
    """

    def __init__(self, system, name: str) -> None:
        self.system = system
        self.name = name
        self.node = system.client_node
        self.machine = system.machine
        self._rpc = Client(self.node, f"twophase:{name}")
        self._opened = None

    # ------------------------------------------------------------------

    def open(self):
        """Open (or re-open) the file; caches the structural result so
        repeated collective calls don't re-pay the open (and its per-LFS
        info RPCs) every time."""
        client = self.system.naive_client(self.node)
        self._opened = yield from client.open(self.name)
        return self._opened

    def _ensure_open(self):
        """The open file, refused when disordered: its blocks follow the
        server's block map, not the interleave the aggregators align to."""
        if self._opened is None:
            yield from self.open()
        if self._opened.disordered:
            raise BridgeBadRequestError(
                f"{self.name!r}: two-phase I/O is not supported on "
                "disordered files (use the naive view)"
            )
        return self._opened

    # ------------------------------------------------------------------
    # Collective read
    # ------------------------------------------------------------------

    def read(self, per_worker: Sequence[Sequence[int]]):
        """Collective read: one global block list per worker.

        Returns ``(per_worker_chunks, CollectiveStats)`` where
        ``per_worker_chunks[w]`` follows worker ``w``'s block order.
        """
        if not per_worker:
            raise BridgeBadRequestError("collective read needs >= 1 worker")
        opened = yield from self._ensure_open()
        imap = opened.interleave
        for worker, blocks in enumerate(per_worker):
            for block in blocks:
                if not 0 <= block < opened.total_blocks:
                    raise BridgeBadRequestError(
                        f"{self.name!r}: worker {worker} requests block "
                        f"{block} outside file of {opened.total_blocks} blocks"
                    )
        sim = self.system.sim
        start = sim.now
        obs = sim.obs
        op_span = None
        prev = None
        if obs is not None:
            prev = obs.current
            op_span = obs.begin("collective_read", "client",
                                node=self.node.index)
            obs.set_current(op_span)
            obs.metrics.counter("collective.read").inc()
        assignment = elect_aggregators(imap, per_worker)
        # All redistribution messages land on one coordinator-owned port;
        # each carries its (slot, worker) origin, so the coordinator can
        # deliver to the right worker regardless of arrival order.
        collect_port = self.node.port("twophase.collect")
        exchange_messages = 0
        expected = 0
        phase1 = None
        if obs is not None:
            phase1 = obs.begin("exchange", "client", node=self.node.index)
            obs.set_current(phase1)
        for slot in sorted(assignment):
            constituent = opened.constituents[slot]
            lfs_node = self.machine.node(constituent.node_index)
            agg_port = lfs_node.port(f"twophase.agg{slot}")
            yield self.machine.spawn_remote(
                lfs_node,
                self._read_aggregator(
                    slot, constituent, imap, assignment[slot],
                    agg_port, collect_port,
                ),
                name=f"twophase.agg{slot}",
            )
            descriptor_blocks = sum(
                len(blocks) for blocks in assignment[slot].values()
            )
            self.node.send(
                agg_port, assignment[slot],
                size=DESCRIPTOR_BYTES_PER_BLOCK * descriptor_blocks,
            )
            exchange_messages += 1
            expected += len(assignment[slot])
        phase2 = None
        if obs is not None:
            obs.end(phase1)
            phase2 = obs.begin("redistribute", "client", parent=op_span,
                               inherit=False, node=self.node.index)
            obs.set_current(phase2)
        by_block: List[Dict[int, bytes]] = [dict() for _ in per_worker]
        bytes_redistributed = 0
        for _ in range(expected):
            _slot, worker, payload = yield collect_port.recv()
            for block, data in payload:
                by_block[worker][block] = data
                bytes_redistributed += len(data)
        if obs is not None:
            obs.end(phase2)
            obs.end(op_span, workers=len(per_worker),
                    aggregators=len(assignment))
            obs.set_current(prev)
        chunks = [
            [by_block[worker][block] for block in blocks]
            for worker, blocks in enumerate(per_worker)
        ]
        distinct = len({b for blocks in per_worker for b in blocks})
        stats = CollectiveStats(
            workers=len(per_worker),
            aggregators=len(assignment),
            blocks=distinct,
            efs_requests=len(assignment),
            exchange_messages=exchange_messages,
            redistribution_messages=expected,
            bytes_redistributed=bytes_redistributed,
            elapsed=sim.now - start,
        )
        return chunks, stats

    def _read_aggregator(self, slot, constituent, imap, slot_assignment,
                         agg_port, collect_port):
        """Aggregator body: one local batched read, then redistribute."""
        yield agg_port.recv()  # phase 1: the merged descriptor arrives
        lfs_node = self.machine.node(constituent.node_index)
        efs = EFSClient(lfs_node, constituent.lfs_port, name=f"agg{slot}")
        union_locals = sorted({
            imap.local_block(block)
            for blocks in slot_assignment.values()
            for block in blocks
        })
        batch = yield from efs.read_blocks(
            constituent.efs_file_number, union_locals,
            hint=constituent.head_addr,
        )
        by_local = {r.block_number: r.data for r in batch.results}
        for worker, blocks in sorted(slot_assignment.items()):
            payload = [
                (block, by_local[imap.local_block(block)]) for block in blocks
            ]
            lfs_node.send(
                collect_port,
                (slot, worker, payload),
                size=sum(len(data) for _block, data in payload),
            )
