"""Fault injection and survival analysis (the mirroring remedy lives
with the other redundancy schemes in :mod:`repro.redundancy.mirror`)."""

from repro.faults.injector import (
    FaultInjector,
    files_lost_fraction_interleaved,
    files_lost_fraction_mirrored,
    files_lost_fraction_single_node,
    replication_storage_factor,
)

__all__ = [
    "FaultInjector",
    "files_lost_fraction_interleaved",
    "files_lost_fraction_mirrored",
    "files_lost_fraction_single_node",
    "replication_storage_factor",
]
