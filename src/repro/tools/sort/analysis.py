"""Analytic cost models for the sort tool.

Section 5.2 gives the local phase as O((n/p)(1 + log c) + (n/p) log(n/cp))
and the merge phase as O(n log(p)/p) "for reasonable values of p"; section
6 (and the companion analysis [17]) argues the merge scales until the
token can no longer complete a circuit in the time a process needs to
write its previous record and read the next.  These closed forms are what
EXPERIMENTS.md compares against the simulated measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SortCostModel:
    """Per-operation costs feeding the closed-form estimates (seconds)."""

    read_time: float = 0.009       # hinted sequential EFS read
    write_time: float = 0.036      # EFS append
    compare_time: float = 40e-6    # one in-core comparison
    token_hop_time: float = 0.003  # token handling + message latency

    # ------------------------------------------------------------------

    def run_formation_time(self, records: int, buffer_records: int) -> float:
        """Read everything, sort bursts in core, write runs once."""
        if records == 0:
            return 0.0
        compares = records * max(1, math.ceil(math.log2(min(records, max(2, buffer_records)))))
        return records * (self.read_time + self.write_time) + compares * self.compare_time

    def local_merge_passes(self, records: int, buffer_records: int) -> int:
        if records <= buffer_records:
            return 0
        return math.ceil(math.log2(math.ceil(records / buffer_records)))

    def local_sort_time(self, total_records: int, width: int,
                        buffer_records: int) -> float:
        """Phase-one time (the slowest node: ceil division)."""
        records = math.ceil(total_records / width)
        passes = self.local_merge_passes(records, buffer_records)
        per_pass = records * (self.read_time + self.write_time + self.compare_time)
        return self.run_formation_time(records, buffer_records) + passes * per_pass

    # ------------------------------------------------------------------

    def merge_record_rate(self, merge_width: int) -> float:
        """Seconds per record for one t-wide pair merge.

        The token emits one record per hop; t writers overlap their
        appends.  The pass therefore runs at the larger of the token's
        hop time and the write time divided by the writer count.
        """
        return max(self.token_hop_time, self.write_time / merge_width)

    def merge_phase_time(self, total_records: int, width: int) -> float:
        """All log2(width) passes (pairs within a pass run in parallel)."""
        if width <= 1:
            return 0.0
        time = 0.0
        runs = width
        pass_width = 2
        while runs > 1:
            records_per_merge = total_records / (runs / 2) if runs >= 2 else total_records
            time += records_per_merge * self.merge_record_rate(min(pass_width, width))
            runs = math.ceil(runs / 2)
            pass_width *= 2
        return time

    # ------------------------------------------------------------------

    def saturation_width(self) -> float:
        """The merge width beyond which the token (not the disks) is the
        bottleneck: write_time / hop_time, the [17]-style limit."""
        return self.write_time / self.token_hop_time
