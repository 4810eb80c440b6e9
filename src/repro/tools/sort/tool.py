"""The merge-sort tool (paper section 5.2).

Two distinct phases:

1. **local sort** — each LFS node externally sorts its constituent of the
   source file into a width-1 run file on the same node ("Consider the
   resulting files to be 'interleaved' across only one processor");
2. **global merge** — a log(p)-depth tree of token-passing pair merges:

       x := p
       while x > 1
           Merge pairs of files in parallel
           x := x/2
           Consider the new files to be interleaved across p/x processors
           Discard the old files in parallel
       endwhile

Pass k runs p/2^k merges, each using 2^k processors to merge 2^k·n/p
records; the first pass gives p/2-way parallelism with 2-way merges, the
last gives one p-way merge.  Odd run counts are handled with byes, so any
width works (the paper's measurements use powers of two).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.partitioned import client_for
from repro.sim import join_all
from repro.tools.base import SCRATCH_FILE_BASE, Tool
from repro.tools.sort.localsort import LocalSorter, LocalSortReport
from repro.tools.sort.merge import MergeStats, PairMerge


@dataclass
class PassStats:
    """One global merge pass: its parallel pair merges."""

    pass_number: int
    merges: List[MergeStats] = field(default_factory=list)
    elapsed: float = 0.0


@dataclass
class SortResult:
    """Phase breakdown matching Table 4's columns."""

    source: str
    dest: str
    records: int
    width: int
    local_sort_time: float
    merge_time: float
    total_time: float
    local_reports: List[LocalSortReport] = field(default_factory=list)
    passes: List[PassStats] = field(default_factory=list)

    @property
    def records_per_second(self) -> float:
        return self.records / self.total_time if self.total_time > 0 else 0.0


class SortTool(Tool):
    """Parallel external merge sort over an interleaved file."""

    name = "sort"

    def __init__(self, node, server_port, config,
                 use_hints: bool = True) -> None:
        super().__init__(node, server_port, config)
        self.use_hints = use_hints

    # ------------------------------------------------------------------

    def run(self, source: str, dest: str):
        """Sort ``source`` into a new interleaved file ``dest``."""
        sim = self.machine.sim
        started = sim.now
        yield from self.get_info()
        src = yield from self.client.open(source)
        width = src.width
        records = src.total_blocks

        # ----- Phase 1: local external sorts, in parallel on the nodes
        run_names: List[str] = []
        run_slots: List[List[int]] = []
        specs = []
        for constituent in src.constituents:
            slot = self.lfs_slot_of_node(constituent.node_index)
            run_name = dest if width == 1 else f"{dest}.run.{constituent.slot}"
            file_id = yield from self.client.create(
                run_name, node_slots=[slot], start=0
            )
            run_names.append(run_name)
            run_slots.append([slot])
            node = self.node_of(constituent.node_index)
            specs.append(
                (
                    node,
                    self._local_sort_worker(node, constituent, file_id),
                    f"esort{constituent.slot}",
                )
            )
        local_reports = yield from self.run_workers(specs)
        local_time = sim.now - started

        # ----- Phase 2: log(p)-depth global merge
        merge_started = sim.now
        passes: List[PassStats] = []
        runs: List[Tuple[str, List[int]]] = list(zip(run_names, run_slots))
        pass_number = 0
        while len(runs) > 1:
            pass_number += 1
            pass_started = sim.now
            drivers = []
            survivors: List[Tuple[str, List[int]]] = []
            for index in range(0, len(runs), 2):
                if index + 1 == len(runs):
                    survivors.append(runs[index])  # bye
                    continue
                (a_name, a_slots), (b_name, b_slots) = runs[index], runs[index + 1]
                out_slots = a_slots + b_slots
                out_name = (
                    dest
                    if len(runs) == 2
                    else f"{dest}.pass{pass_number}.{index // 2}"
                )
                driver = self.node.spawn(
                    self._merge_driver(pass_number, index // 2, a_name,
                                       b_name, out_name, out_slots),
                    name=f"merge{pass_number}.{index // 2}",
                )
                drivers.append(driver)
                survivors.append((out_name, out_slots))
            merge_stats = yield join_all(drivers)
            passes.append(
                PassStats(
                    pass_number=pass_number,
                    merges=list(merge_stats),
                    elapsed=sim.now - pass_started,
                )
            )
            runs = survivors
        merge_time = sim.now - merge_started

        return SortResult(
            source=source,
            dest=dest,
            records=records,
            width=width,
            local_sort_time=local_time,
            merge_time=merge_time,
            total_time=sim.now - started,
            local_reports=list(local_reports),
            passes=passes,
        )

    # ------------------------------------------------------------------

    def _local_sort_worker(self, node, constituent, dst_file_id: int):
        sorter = LocalSorter(
            node,
            constituent.lfs_port,
            self.config,
            scratch_base=SCRATCH_FILE_BASE + node.index * 10**6,
            use_hints=self.use_hints,
        )
        report = yield from sorter.sort(
            constituent.efs_file_number, dst_file_id, constituent.slot
        )
        return report

    def _merge_driver(self, pass_number: int, pair_index: int, a_name: str,
                      b_name: str, out_name: str, out_slots: List[int]):
        """One pair merge: create the output, run the token protocol,
        discard the inputs."""
        client = client_for(self.node, self.server_port,
                            name=f"merge{pass_number}.{pair_index}")
        yield from client.create(out_name, node_slots=out_slots, start=0)
        left = yield from client.open(a_name)
        right = yield from client.open(b_name)
        out = yield from client.open(out_name)
        total = left.total_blocks + right.total_blocks
        merge = PairMerge(self.node, self.config)
        stats = yield from merge.run(
            left.constituents, right.constituents, out.constituents, total
        )
        yield from client.delete(a_name)
        yield from client.delete(b_name)
        return stats
