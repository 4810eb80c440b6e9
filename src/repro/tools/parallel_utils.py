"""Parallel utilities over the batched metadata surface (S23).

"Scalable Unix Commands for Parallel Processors" observes that the
familiar shell verbs — ``cp -r``, ``rm -r``, ``find`` — fall over on
parallel file systems because they issue one metadata RPC per file.
These tools are the Bridge rendition: each walks a deep name tree (see
:mod:`repro.workloads.trees`) through the S23 batched ops — one
windowed RPC per partition sub-batch instead of one per name — and
``pcp`` then streams the data the classic tool-framework way, one
worker per LFS node carrying *all* of that node's constituent copies.

Unlike :class:`~repro.tools.copy.CopyTool` (one file, one worker per
constituent), ``pcp -r`` copies a whole subtree: metadata for every
file is resolved in a handful of batched RPCs up front, and each LFS
node gets a single worker with a job list, so worker count stays O(p)
no matter how many files the tree holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.batch import FileStat
from repro.efs import EFSClient
from repro.tools.base import Tool
from repro.tools.copy import WorkerReport


@dataclass
class FindResult:
    """Outcome of one ``pfind`` sweep."""

    prefix: str
    names: List[str]
    stats: List[FileStat] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def total_blocks(self) -> int:
        return sum(stat.total_blocks for stat in self.stats)


@dataclass
class RemoveResult:
    """Outcome of one ``prm -r`` sweep."""

    prefix: str
    removed: List[str]
    freed_blocks: int
    errors: List[Tuple[str, str]] = field(default_factory=list)
    elapsed: float = 0.0


@dataclass
class PCopyResult:
    """Outcome of one ``pcp -r`` run."""

    source_prefix: str
    dest_prefix: str
    files: int
    total_blocks: int
    elapsed: float
    workers: List[WorkerReport] = field(default_factory=list)


class PFindTool(Tool):
    """``pfind``: list a subtree and (optionally) stat every file in
    batched sub-RPCs — the read-only tree walk."""

    name = "pfind"

    def run(self, prefix: str = "", with_stats: bool = True):
        sim = self.machine.sim
        started = sim.now
        client = self.client
        names = yield from client.find(prefix)
        stats: List[FileStat] = []
        missing: List[str] = []
        if with_stats and names:
            outcomes = yield from client.mstat(names)
            for outcome in outcomes:
                if outcome.ok:
                    stats.append(outcome.value)
                else:
                    missing.append(outcome.name)
        return FindResult(
            prefix=prefix,
            names=names,
            stats=stats,
            missing=missing,
            elapsed=sim.now - started,
        )


class PRemoveTool(Tool):
    """``prm -r``: delete a whole subtree in batched sub-RPCs.  A name
    that vanishes mid-sweep is reported per name, never a failed run."""

    name = "prm"

    def run(self, prefix: str):
        sim = self.machine.sim
        started = sim.now
        client = self.client
        names = yield from client.find(prefix)
        removed: List[str] = []
        errors: List[Tuple[str, str]] = []
        freed = 0
        if names:
            outcomes = yield from client.mdelete(names)
            for outcome in outcomes:
                if outcome.ok:
                    removed.append(outcome.name)
                    freed += outcome.value
                else:
                    errors.append((outcome.name, str(outcome.error)))
        return RemoveResult(
            prefix=prefix,
            removed=removed,
            freed_blocks=freed,
            errors=errors,
            elapsed=sim.now - started,
        )


class PCopyTool(Tool):
    """``pcp -r``: copy a whole subtree.

    Metadata phase: one ``find``, one batched ``mopen`` of the sources,
    one batched ``mcreate`` per distinct (placement, start) shape, one
    batched ``mopen`` of the destinations.  Data phase: one worker per
    LFS node, streaming every constituent copy that lands on its node —
    the section-4.2 "export the code to the data" step, amortized over
    the whole tree.
    """

    name = "pcp"

    def run(self, source_prefix: str, dest_prefix: str):
        sim = self.machine.sim
        started = sim.now
        yield from self.get_info()
        client = self.client
        names = yield from client.find(source_prefix)
        if not names:
            return PCopyResult(
                source_prefix=source_prefix, dest_prefix=dest_prefix,
                files=0, total_blocks=0, elapsed=sim.now - started,
            )
        dest_names = [dest_prefix + name[len(source_prefix):]
                      for name in names]

        outcomes = yield from client.mopen(names)
        sources = [outcome.unwrap() for outcome in outcomes]

        # One batched create per distinct placement shape, so every
        # destination mirrors its source's interleaving exactly.
        groups: Dict[Tuple[Tuple[int, ...], int], List[int]] = {}
        for index, src in enumerate(sources):
            slots = tuple(self.lfs_slot_of_node(c.node_index)
                          for c in src.constituents)
            groups.setdefault((slots, src.start), []).append(index)
        for (slots, start), indexes in sorted(groups.items()):
            created = yield from client.mcreate(
                [dest_names[i] for i in indexes],
                node_slots=list(slots), start=start,
            )
            for outcome in created:
                outcome.unwrap()

        outcomes = yield from client.mopen(dest_names)
        dests = [outcome.unwrap() for outcome in outcomes]

        # Data phase: bucket every constituent pair by LFS node; one
        # worker per node carries its whole job list.
        jobs: Dict[int, List[Tuple[object, object]]] = {}
        for src, dst in zip(sources, dests):
            for src_c, dst_c in zip(src.constituents, dst.constituents):
                jobs.setdefault(src_c.node_index, []).append((src_c, dst_c))
        specs = []
        for node_index in sorted(jobs):
            node = self.node_of(node_index)
            specs.append((node, self._worker(node, jobs[node_index]),
                          f"pcp{node_index}"))
        reports = yield from self.run_workers(specs)
        return PCopyResult(
            source_prefix=source_prefix,
            dest_prefix=dest_prefix,
            files=len(names),
            total_blocks=sum(report.blocks for report in reports),
            elapsed=sim.now - started,
            workers=reports,
        )

    def _worker(self, node, pairs):
        """Per-node worker: stream every (src, dst) constituent pair
        that lives on this node, block by block through the local LFS."""
        sim = self.machine.sim
        started = sim.now
        client = EFSClient(node, pairs[0][0].lfs_port, name="pcp")
        blocks = 0
        for src_c, dst_c in pairs:
            hint = src_c.head_addr
            for local_block in range(src_c.size_blocks):
                result = yield from client.read(
                    src_c.efs_file_number, local_block, hint=hint
                )
                hint = result.next_addr
                yield from client.write(
                    dst_c.efs_file_number, local_block, result.data
                )
                blocks += 1
        return WorkerReport(
            slot=pairs[0][0].slot,
            node_index=pairs[0][0].node_index,
            blocks=blocks,
            elapsed=sim.now - started,
        )
