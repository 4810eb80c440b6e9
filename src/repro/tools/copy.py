"""The copy tool (paper section 5.1) and its transforming cousins.

"An ordinary file system can copy a file of length n in time O(n).  If
the copy program is written as a Bridge tool, files can be copied in time
O(n/p + log(p)) with p-way interleaving."  One ``ecopy`` worker runs on
each LFS node, streaming its constituent file block by block:

    ecopy (LFS, local src, local dest)
        Send Read (local src) to LFS; Receive (data)
        while not end of file
            Send Write (local dest, data) to LFS
            Send Read (local src) to LFS; Receive (data)
        endwhile

"The while loop in ecopy could contain any transformation on the blocks
of data that preserves their number and order" — the ``transform`` hook
is exactly that loop body, and the filter tools in
:mod:`repro.tools.filters` are implemented as such transformations.

The copy ignores the Bridge headers of the source: the EFS rebuilds
per-block headers for the destination, and because all pointers are
block-number/LFS-instance pairs they remain valid in the new file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.efs import EFSClient
from repro.sim import Timeout
from repro.tools.base import Tool


@dataclass
class WorkerReport:
    """What one ecopy worker hands back at completion time.

    "By returning a small amount of information at completion time, we
    can also perform sequential searches or produce summary information."
    """

    slot: int
    node_index: int
    blocks: int
    elapsed: float
    summary: Optional[dict] = None


@dataclass
class CopyResult:
    """Aggregate outcome of one tool run."""

    source: str
    dest: str
    total_blocks: int
    elapsed: float
    workers: List[WorkerReport] = field(default_factory=list)

    @property
    def blocks_per_second(self) -> float:
        return self.total_blocks / self.elapsed if self.elapsed > 0 else 0.0


class CopyTool(Tool):
    """Parallel whole-file copy via per-LFS ecopy workers."""

    name = "copy"

    # ------------------------------------------------------------------
    # Transformation hook (identity for plain copy)
    # ------------------------------------------------------------------

    def transform(self, data: bytes, local_block: int, slot: int) -> bytes:
        """Per-block transformation; must preserve block count and order."""
        return data

    def transform_cpu(self) -> float:
        """CPU charged per transformed block (identity copy: none)."""
        return 0.0

    def summarize(self, summary: Optional[dict], data: bytes,
                  global_block: int) -> Optional[dict]:
        """Fold one block into the worker's running summary (optional)."""
        return summary

    # ------------------------------------------------------------------

    def run(self, source: str, dest: str):
        """Copy ``source`` to a freshly created ``dest``; returns CopyResult."""
        started = self.node.machine.sim.now
        yield from self.get_info()
        src = yield from self.client.open(source)
        slots = [self.lfs_slot_of_node(c.node_index) for c in src.constituents]
        yield from self.client.create(dest, node_slots=slots, start=src.start)
        dst = yield from self.client.open(dest)
        specs = []
        for constituent, dst_constituent in zip(src.constituents, dst.constituents):
            node = self.node_of(constituent.node_index)
            specs.append(
                (
                    node,
                    self._ecopy(node, constituent, dst_constituent),
                    f"ecopy{constituent.slot}",
                )
            )
        reports = yield from self.run_workers(specs)
        elapsed = self.node.machine.sim.now - started
        return CopyResult(
            source=source,
            dest=dest,
            total_blocks=sum(r.blocks for r in reports),
            elapsed=elapsed,
            workers=reports,
        )

    # ------------------------------------------------------------------

    def _ecopy(self, node, src_constituent, dst_constituent):
        """The per-LFS worker body: stream local src into local dest."""
        sim = self.machine.sim
        started = sim.now
        client = EFSClient(node, src_constituent.lfs_port, name="ecopy")
        src_file = src_constituent.efs_file_number
        dst_file = dst_constituent.efs_file_number
        size = src_constituent.size_blocks
        hint = src_constituent.head_addr
        summary: Optional[dict] = None
        interleave_width = max(1, len(self.system_info.lfs)) if self.system_info else 1
        for local_block in range(size):
            result = yield from client.read(src_file, local_block, hint=hint)
            hint = result.next_addr
            cpu = self.transform_cpu()
            if cpu:
                yield Timeout(cpu)
            data = self.transform(result.data, local_block, src_constituent.slot)
            summary = self.summarize(summary, data, result.global_block)
            yield from client.write(dst_file, local_block, data)
        return WorkerReport(
            slot=src_constituent.slot,
            node_index=src_constituent.node_index,
            blocks=size,
            elapsed=sim.now - started,
            summary=summary,
        )
