"""The local external sort phase (paper section 5.2, phase one).

"In parallel perform local external sorts on each LFS."  Each LFS node
sorts its own constituent file with the classic external merge sort:

1. **run formation** — read ``c`` records at a time (c = 512 in the
   paper), sort them in core (CPU charged at c·log2(c) comparisons), and
   write each sorted run to a scratch EFS file;
2. **local merge passes** — repeatedly 2-way merge pairs of runs until a
   single sorted run remains, which is written into the destination
   constituent file.

The expected time is O((n/p)(1 + log c) + (n/p) log(n/(c·p))) — and the
term that matters for the tool's superlinear speedup is the *pass count*
``ceil(log2(ceil(s/c)))``: every doubling of p removes one local merge
pass (section 5.2's explanation of the anomaly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.config import SystemConfig
from repro.efs import EFSClient
from repro.sim import Timeout
from repro.tools.sort.records import key_of


@dataclass
class LocalSortReport:
    """Per-node accounting for the local phase."""

    slot: int
    records: int
    runs: int
    merge_passes: int
    elapsed: float


class LocalSorter:
    """Sorts one constituent file on its own node, through its own LFS."""

    def __init__(
        self,
        node,
        lfs_port,
        config: SystemConfig,
        scratch_base: int,
        use_hints: bool = True,
    ) -> None:
        self.node = node
        self.config = config
        self.client = EFSClient(node, lfs_port, name="esort")
        self.scratch_base = scratch_base
        self.use_hints = use_hints
        self._next_scratch = 0

    # ------------------------------------------------------------------

    def sort(self, src_file: int, dst_file: int, slot: int):
        """Externally sort ``src_file`` into (empty) ``dst_file``.

        Generator; returns a :class:`LocalSortReport`.
        """
        sim = self.node.machine.sim
        started = sim.now
        info = yield from self.client.info(src_file)
        total = info.size_blocks
        buffer_records = self.config.sort_buffer_records
        if total == 0:
            return LocalSortReport(slot, 0, 0, 0, sim.now - started)

        runs = yield from self._form_runs(src_file, info, total, buffer_records, dst_file)
        run_count = len(runs)
        passes = 0
        while len(runs) > 1:
            passes += 1
            final_pass = len(runs) <= 2
            merged: List[int] = []
            for index in range(0, len(runs), 2):
                if index + 1 == len(runs):
                    merged.append(runs[index])  # odd run gets a bye
                    continue
                target = dst_file if (final_pass and not merged) else self._scratch()
                yield from self._create_scratch(target, dst_file)
                yield from self._merge_pair(runs[index], runs[index + 1], target)
                yield from self.client.delete(runs[index])
                yield from self.client.delete(runs[index + 1])
                merged.append(target)
            runs = merged
        # The last run standing is ``dst_file``: a file that fits one
        # run is formed there, and the final merge targets it.
        return LocalSortReport(
            slot=slot,
            records=total,
            runs=run_count,
            merge_passes=passes,
            elapsed=sim.now - started,
        )

    # ------------------------------------------------------------------

    def _scratch(self) -> int:
        self._next_scratch += 1
        return self.scratch_base + self._next_scratch

    def _create_scratch(self, file_number: int, dst_file: int):
        if file_number != dst_file:
            yield from self.client.create(file_number)

    def _form_runs(self, src_file, info, total, buffer_records, dst_file):
        """Run formation: sorted bursts of up to ``buffer_records``."""
        read, append = self.client.read, self.client.append
        use_hints = self.use_hints
        runs: List[int] = []
        hint = info.head_addr if use_hints else None
        position = 0
        single = total <= buffer_records
        while position < total:
            burst: List[bytes] = []
            while position < total and len(burst) < buffer_records:
                result = yield from read(src_file, position, hint)
                hint = result.next_addr if use_hints else None
                burst.append(result.data)
                position += 1
            compares = len(burst) * max(1, math.ceil(math.log2(max(2, len(burst)))))
            yield Timeout(compares * self.config.cpu.compare)
            burst.sort(key=key_of)
            target = dst_file if single else self._scratch()
            yield from self._create_scratch(target, dst_file)
            for record in burst:
                yield from append(target, record)
            runs.append(target)
        return runs

    def _merge_pair(self, left_file: int, right_file: int, target: int):
        """2-way merge of two sorted scratch runs into ``target``: per
        record one compare charge (the same ``Timeout`` every time), one
        append and, in line, the read of its run's next record."""
        client = self.client
        read, append = client.read, client.append
        use_hints = self.use_hints
        left = _RunCursor(client, left_file, use_hints)
        right = _RunCursor(client, right_file, use_hints)
        yield from left.start()
        yield from right.start()
        charge = Timeout(self.config.cpu.compare)
        while left.record is not None or right.record is not None:
            yield charge
            take_left = right.record is None or (
                left.record is not None and left.key <= right.key
            )
            cursor = left if take_left else right
            yield from append(target, cursor.record)
            if cursor.position < cursor.size:
                result = yield from read(cursor.file_number, cursor.position,
                                         cursor.hint)
                cursor.hint = result.next_addr if use_hints else None
                cursor.record = record = result.data
                cursor.key = key_of(record)
                cursor.position += 1
            else:
                cursor.record = None


class _RunCursor:
    """Sequential reader over one scratch run with hint threading; the
    merge loop advances it in line, :meth:`start` reads its first
    record."""

    __slots__ = ("client", "file_number", "use_hints", "size", "position",
                 "hint", "record", "key")

    def __init__(self, client: EFSClient, file_number: int, use_hints: bool) -> None:
        self.client = client
        self.file_number = file_number
        self.use_hints = use_hints
        self.size = 0
        self.position = 0
        self.hint: Optional[int] = None
        self.record: Optional[bytes] = None
        self.key = 0

    def start(self):
        info = yield from self.client.info(self.file_number)
        self.size = info.size_blocks
        self.hint = info.head_addr if self.use_hints else None
        if self.size:
            result = yield from self.client.read(self.file_number, 0, self.hint)
            self.hint = result.next_addr if self.use_hints else None
            self.record = result.data
            self.key = key_of(self.record)
            self.position = 1
