"""Experiment harness: system builders, runners, and result records."""

from repro.harness.builders import (
    BridgeSystem,
    acceptance_system,
    build_system,
    paper_system,
)
from repro.harness.results import (
    CollectiveRun,
    ObsRun,
    RebalanceRun,
    TrafficRun,
)

__all__ = [
    "BridgeSystem", "CollectiveRun", "ObsRun", "RebalanceRun", "TrafficRun",
    "acceptance_system", "build_system", "paper_system",
]
