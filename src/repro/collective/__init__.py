"""Collective I/O (S17): two-phase reads over global block lists."""

from repro.collective.twophase import (
    DESCRIPTOR_BYTES_PER_BLOCK,
    CollectiveStats,
    TwoPhaseIO,
    elect_aggregators,
)

__all__ = [
    "DESCRIPTOR_BYTES_PER_BLOCK",
    "CollectiveStats",
    "TwoPhaseIO",
    "elect_aggregators",
]
