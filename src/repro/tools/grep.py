"""The search (grep) tool: a read-only Bridge tool returning summaries.

Section 4.2 lists grep among the standard tools, and 5.1 notes that a
tool returning "a small amount of information at completion time" can
"perform sequential searches or produce summary information."  Each
worker scans its constituent file locally — only match positions cross
the interconnect, which is the entire point of exporting code to the
data: the data is filtered (and presumably compressed) before it moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.efs import EFSClient
from repro.sim import Timeout
from repro.tools.base import Tool


@dataclass
class Match:
    """One pattern occurrence: global block number and byte offset."""

    global_block: int
    offset: int


@dataclass
class GrepResult:
    """All matches plus per-worker accounting."""

    pattern: bytes
    matches: List[Match] = field(default_factory=list)
    blocks_scanned: int = 0
    elapsed: float = 0.0

    @property
    def count(self) -> int:
        return len(self.matches)


class GrepTool(Tool):
    """Parallel substring search over an interleaved file."""

    name = "grep"

    def run(self, name: str, pattern: bytes):
        """Search every block of ``name`` for ``pattern``."""
        if not pattern:
            raise ValueError("empty search pattern")
        started = self.machine.sim.now
        yield from self.get_info()
        src = yield from self.client.open(name)
        specs = []
        for constituent in src.constituents:
            node = self.node_of(constituent.node_index)
            specs.append(
                (node, self._scan(node, constituent, pattern),
                 f"egrep{constituent.slot}")
            )
        per_worker = yield from self.run_workers(specs)
        matches: List[Match] = []
        scanned = 0
        for worker_matches, worker_blocks in per_worker:
            matches.extend(worker_matches)
            scanned += worker_blocks
        matches.sort(key=lambda m: (m.global_block, m.offset))
        return GrepResult(
            pattern=pattern,
            matches=matches,
            blocks_scanned=scanned,
            elapsed=self.machine.sim.now - started,
        )

    def _scan(self, node, constituent, pattern: bytes):
        client = EFSClient(node, constituent.lfs_port, name="egrep")
        hint = constituent.head_addr
        matches: List[Match] = []
        for local_block in range(constituent.size_blocks):
            result = yield from client.read(
                constituent.efs_file_number, local_block, hint=hint
            )
            hint = result.next_addr
            yield Timeout(self.config.cpu.tool_record)
            offset = result.data.find(pattern)
            while offset != -1:
                matches.append(Match(result.global_block, offset))
                offset = result.data.find(pattern, offset + 1)
        return matches, constituent.size_blocks
