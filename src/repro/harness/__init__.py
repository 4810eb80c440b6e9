"""Experiment harness: the system spec and builder, runners, and result
records."""

from repro.harness.builders import BridgeSystem, paper_system
from repro.harness.results import (
    CollectiveRun,
    RebalanceRun,
    TrafficRun,
)
from repro.harness.spec import PRESETS, SystemSpec

__all__ = [
    "BridgeSystem", "CollectiveRun", "PRESETS", "RebalanceRun",
    "SystemSpec", "TrafficRun", "paper_system",
]
