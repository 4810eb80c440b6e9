"""Faults and redundancy over the interleaved Bridge layout (S12, S16).

Section 6's problem — :class:`FaultInjector` fails devices in a live
system, and the survival formulas price every placement
(:mod:`repro.redundancy.faults`) — and its remedies: block mirroring at
2x storage (:mod:`repro.redundancy.mirror`) and, beyond it, rotating XOR
parity (RAID-5 style) at ``p/(p-1)`` storage overhead, with transparent
degraded reads and an online, throttleable rebuild after repair.  See
:mod:`repro.redundancy.parity` for the layout, in particular the
single-failure semantics shared with every RAID-5-class system.
"""

from repro.redundancy.degraded import (
    DegradedReader,
    DegradedReadStats,
    xor_blocks,
)
from repro.redundancy.faults import (
    FaultInjector,
    files_lost_fraction_interleaved,
    files_lost_fraction_mirrored,
    files_lost_fraction_parity,
    files_lost_fraction_single_node,
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
from repro.redundancy.parity import ParityFile, ParityGeometry
from repro.redundancy.rebuild import (
    OnlineRebuild,
    RebuildProgress,
    RebuildStats,
)

__all__ = [
    "SCHEMES",
    "DegradedReader",
    "DegradedReadStats",
    "FaultInjector",
    "MirroredFile",
    "MirroredReadStats",
    "OnlineRebuild",
    "ParityFile",
    "ParityGeometry",
    "PlainFile",
    "RebuildProgress",
    "RebuildStats",
    "RedundancyManager",
    "files_lost_fraction_interleaved",
    "files_lost_fraction_mirrored",
    "files_lost_fraction_parity",
    "files_lost_fraction_single_node",
    "shadow_name",
    "xor_blocks",
]
