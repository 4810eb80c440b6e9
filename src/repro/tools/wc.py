"""A summary-information tool: parallel byte/word/line counting.

Demonstrates the "produce summary information" tool pattern of section
5.1 — each worker reduces its constituent file to three integers, so the
reduction crossing the network is constant-size per node.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.efs import EFSClient
from repro.sim import Timeout
from repro.tools.base import Tool


@dataclass
class CountResult:
    """Totals across the interleaved file."""

    data_bytes: int
    words: int
    lines: int
    blocks: int
    elapsed: float


class WordCountTool(Tool):
    """Parallel wc over an interleaved file (counts trailing NUL padding
    as neither words nor lines)."""

    name = "wc"

    def run(self, name: str):
        started = self.machine.sim.now
        yield from self.get_info()
        src = yield from self.client.open(name)
        specs = []
        for constituent in src.constituents:
            node = self.node_of(constituent.node_index)
            specs.append(
                (node, self._count(node, constituent), f"ewc{constituent.slot}")
            )
        per_worker = yield from self.run_workers(specs)
        data_bytes = sum(w[0] for w in per_worker)
        words = sum(w[1] for w in per_worker)
        lines = sum(w[2] for w in per_worker)
        blocks = sum(w[3] for w in per_worker)
        return CountResult(
            data_bytes=data_bytes,
            words=words,
            lines=lines,
            blocks=blocks,
            elapsed=self.machine.sim.now - started,
        )

    def _count(self, node, constituent):
        client = EFSClient(node, constituent.lfs_port, name="ewc")
        hint = constituent.head_addr
        data_bytes = words = lines = 0
        for local_block in range(constituent.size_blocks):
            result = yield from client.read(
                constituent.efs_file_number, local_block, hint=hint
            )
            hint = result.next_addr
            yield Timeout(self.config.cpu.tool_record)
            payload = result.data.rstrip(b"\x00")
            data_bytes += len(payload)
            words += len(payload.split())
            lines += payload.count(b"\n")
        return data_bytes, words, lines, constituent.size_blocks
