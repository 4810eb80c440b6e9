"""S20 replay guard: the acceptance workload vs the committed baseline.

The committed Chrome trace at ``tests/baselines/trace_acceptance.json``
pins the seed event sequence of every Bridge Server operation on the
default single-server configuration.  Re-exporting the acceptance
workload must reproduce it byte-for-byte; any drift fails with the
offending subtree.  This is the record-for-record acceptance check for
refactors of the request path (the S20 pipeline in particular).
"""

import json
import os

from repro.obs import diff_trace_documents, export_chrome_trace
from repro.harness import BridgeSystem, SystemSpec
from repro.workloads.acceptance import acceptance_driver

BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "baselines", "trace_acceptance.json",
)


def test_acceptance_trace_matches_committed_baseline(tmp_path):
    system = BridgeSystem(SystemSpec.preset("acceptance"))
    summary = acceptance_driver(system)
    # Data-level outcome first: every view returned the right bytes.
    assert summary["alpha_blocks"] == 12
    assert summary["alpha_ok"] and summary["alpha_patched"]
    assert summary["list_read_ok"] and summary["list_write_total"] == 14
    assert summary["scatter_map_len"] == 6 and summary["scatter_first"]
    assert summary["info_width"] == 4
    assert summary["freed"] == 6
    assert summary["parallel_counts"] == [4, 4, 0]
    assert summary["parallel_total"] == 12
    assert summary["parallel_ok"]

    path = tmp_path / "trace.json"
    export_chrome_trace(system.obs, str(path))
    fresh = path.read_bytes()
    with open(BASELINE, "rb") as handle:
        baseline = handle.read()
    if fresh != baseline:
        report = diff_trace_documents(
            json.loads(baseline.decode("utf-8")),
            json.loads(fresh.decode("utf-8")),
        )
        raise AssertionError(
            "acceptance trace drifted from the committed baseline\n"
            + "\n".join(report)
        )


def _span_event(span_id, parent_id, name, ts, pid=0):
    return {
        "name": name, "cat": "server", "ph": "X", "ts": ts, "dur": 1.0,
        "pid": pid, "tid": 1,
        "args": {"span_id": span_id, "parent_id": parent_id},
    }


def test_diff_reports_offending_subtree():
    baseline = {"traceEvents": [
        _span_event(1, None, "bridge.seq_read", 0.0),
        _span_event(2, 1, "gather.read", 1.0),
        _span_event(3, 1, "gather.read", 2.0),
    ]}
    drifted = {"traceEvents": [
        _span_event(1, None, "bridge.seq_read", 0.0),
        _span_event(2, 1, "gather.read", 1.0),
        _span_event(3, 1, "gather.write", 2.0),
    ]}
    assert diff_trace_documents(baseline, baseline) == []
    report = diff_trace_documents(baseline, drifted)
    assert report
    assert "drift at event index 2" in report[0]
    text = "\n".join(report)
    # Both subtrees render, anchored at the shared root, with the
    # offending span marked.
    assert "bridge.seq_read" in text
    assert ">> " in text
    assert "gather.write" in text

    # Length mismatch is drift too.
    shorter = {"traceEvents": baseline["traceEvents"][:2]}
    report = diff_trace_documents(baseline, shorter)
    assert report and "baseline: 3 spans, candidate: 2" in report[0]
