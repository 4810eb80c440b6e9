"""Redundancy over the interleaved Bridge layout (S16).

The section 6 remedies: block mirroring at 2x storage
(:mod:`repro.redundancy.mirror`) and, beyond it, rotating XOR parity
(RAID-5 style) at ``p/(p-1)`` storage overhead, with transparent
degraded reads and an online, throttleable rebuild after repair.  See
:mod:`repro.redundancy.parity` for the layout, in particular the
single-failure semantics shared with every RAID-5-class system.
"""

from repro.redundancy.degraded import (
    DegradedReader,
    DegradedReadStats,
    fanout_reads,
)
from repro.redundancy.manager import (
    SCHEMES,
    PlainFile,
    RedundancyManager,
)
from repro.redundancy.mirror import (
    MirroredFile,
    MirroredReadStats,
    shadow_name,
)
from repro.redundancy.parity import (
    ParityFile,
    ParityGeometry,
    files_lost_fraction_parity,
    parity_storage_factor,
    xor_blocks,
)
from repro.redundancy.rebuild import (
    OnlineRebuild,
    RebuildProgress,
    RebuildStats,
)

__all__ = [
    "SCHEMES",
    "DegradedReader",
    "DegradedReadStats",
    "MirroredFile",
    "MirroredReadStats",
    "OnlineRebuild",
    "ParityFile",
    "ParityGeometry",
    "PlainFile",
    "RebuildProgress",
    "RebuildStats",
    "RedundancyManager",
    "fanout_reads",
    "files_lost_fraction_parity",
    "parity_storage_factor",
    "shadow_name",
    "xor_blocks",
]
