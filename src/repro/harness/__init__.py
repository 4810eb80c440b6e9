"""Experiment harness: the system spec and builder, and the experiment
runners, each returning its BENCH row as a plain dict."""

from repro.harness.builders import BridgeSystem, paper_system
from repro.harness.spec import PRESETS, SystemSpec

__all__ = ["BridgeSystem", "PRESETS", "SystemSpec", "paper_system"]
