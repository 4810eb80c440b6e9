"""S21 unit tests: the SLO recorder's per-class outcome accounting."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.traffic import OUTCOMES, SLORecorder


def test_outcome_vocabulary_is_closed():
    recorder = SLORecorder()
    recorder.record_issue("read")
    with pytest.raises(ValueError):
        recorder.record_outcome("read", "vanished", 0.1)


def test_only_ok_outcomes_observe_latency():
    recorder = SLORecorder()
    for outcome in OUTCOMES:
        recorder.record_issue("read")
        recorder.record_outcome("read", outcome, 0.25)
    stats = recorder.classes["read"]
    assert stats.offered == len(OUTCOMES)
    assert stats.latency.count == 1  # only the "ok" completion
    assert all(stats.outcomes[outcome] == 1 for outcome in OUTCOMES)


def test_goodput_counts_only_completions():
    recorder = SLORecorder()
    for _ in range(8):
        recorder.record_issue("write")
        recorder.record_outcome("write", "ok", 0.01)
    for _ in range(4):
        recorder.record_issue("write")
        recorder.record_outcome("write", "shed", 0.001)
    assert recorder.goodput(2.0) == pytest.approx(4.0)
    assert recorder.total() == 12
    assert recorder.total("shed") == 4


def test_summary_reports_per_class_quantiles_and_rates():
    recorder = SLORecorder()
    for index in range(100):
        recorder.record_issue("read")
        recorder.record_outcome("read", "ok", 0.001 * (index + 1))
    recorder.record_issue("tool")
    recorder.record_outcome("tool", "abandoned", 9.0)
    summary = recorder.summary(duration=10.0)
    assert summary["offered"] == 101
    assert summary["completed"] == 100
    assert summary["abandoned"] == 1
    assert summary["goodput"] == pytest.approx(10.0)
    read = summary["classes"]["read"]
    assert set(("p50", "p99", "p999", "mean", "max")) <= set(read)
    assert read["p50"] <= read["p99"] <= read["p999"] <= read["max"]
    # The abandoned tool job contributes no latency sample.
    assert summary["classes"]["tool"]["p99"] == 0.0


def test_registry_adoption_exposes_latency_histograms():
    registry = MetricsRegistry()
    recorder = SLORecorder(registry=registry)
    recorder.record_issue("read")
    recorder.record_outcome("read", "ok", 0.002)
    snapshot = registry.snapshot()
    assert "traffic.read.latency" in snapshot
    assert snapshot["traffic.read.latency"]["count"] == 1
