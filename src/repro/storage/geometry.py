"""Disk geometry: mapping block addresses onto cylinders/tracks/sectors.

Only the geometric latency model and the elevator scheduler care about
geometry; the paper's own experiments used a flat 15 ms access time
(section 4.4), for which geometry is irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class DiskGeometry:
    """A classic CHS layout.

    ``blocks_per_track`` doubles as the unit of full-track buffering: the
    EFS cache reads whole tracks, which is what drives the sequential-read
    advantage in Table 2.
    """

    cylinders: int
    tracks_per_cylinder: int
    blocks_per_track: int

    @property
    def capacity_blocks(self) -> int:
        return self.cylinders * self.tracks_per_cylinder * self.blocks_per_track

    def locate(self, block: int) -> Tuple[int, int, int]:
        """Map a block address to ``(cylinder, track, sector)``."""
        if not 0 <= block < self.capacity_blocks:
            raise ValueError(
                f"block {block} outside geometry capacity {self.capacity_blocks}"
            )
        sector = block % self.blocks_per_track
        track_index = block // self.blocks_per_track
        track = track_index % self.tracks_per_cylinder
        cylinder = track_index // self.tracks_per_cylinder
        return cylinder, track, sector

    def cylinder_of(self, block: int) -> int:
        return self.locate(block)[0]
