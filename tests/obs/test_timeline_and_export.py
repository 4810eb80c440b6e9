"""Unit tests for the Chrome trace exporter."""

import json

import pytest

from repro.obs import (
    Observability,
    chrome_trace_document,
    export_chrome_trace,
    validate_trace_document,
)


class FakeSim:
    def __init__(self):
        self.now = 0.0


def _obs_with_tree():
    obs = Observability()
    sim = FakeSim()
    obs.attach(sim)
    root = obs.begin("call.read", "client", node=2)
    obs.set_current(root)
    sim.now = 0.001
    child = obs.begin("bridge.read", "server", node=1)
    sim.now = 0.002
    obs.end(child)
    sim.now = 0.003
    obs.end(root)
    obs.begin("unfinished", "net")  # must be skipped by the exporter
    return obs


def test_chrome_trace_document_structure():
    obs = _obs_with_tree()
    document = chrome_trace_document(obs)
    assert validate_trace_document(document) == []
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == 2  # the unfinished span is not exported
    by_name = {e["name"]: e for e in complete}
    root_event = by_name["call.read"]
    child_event = by_name["bridge.read"]
    assert root_event["pid"] == 2 and child_event["pid"] == 1
    assert child_event["args"]["parent_id"] == root_event["args"]["span_id"]
    assert child_event["ts"] == pytest.approx(1000.0)  # microseconds
    assert child_event["dur"] == pytest.approx(1000.0)
    # metadata names every node row
    meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
    assert {e["args"]["name"] for e in meta} >= {"node 1", "node 2"}


def test_export_chrome_trace_bytes_are_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    export_chrome_trace(_obs_with_tree(), str(first))
    export_chrome_trace(_obs_with_tree(), str(second))
    assert first.read_bytes() == second.read_bytes()
    assert validate_trace_document(json.loads(first.read_text())) == []


def test_validate_trace_document_reports_problems():
    assert validate_trace_document({}) == ["traceEvents missing or not a list"]
    bad = {"traceEvents": [
        "not-an-object",
        {"ph": "Z", "name": "x", "pid": 0, "tid": 0},
        {"ph": "X", "name": 3, "pid": 0, "tid": 0, "ts": -1.0, "dur": 0.0},
    ]}
    problems = validate_trace_document(bad)
    assert any("not an object" in p for p in problems)
    assert any("unexpected phase" in p for p in problems)
    assert any("bad 'name'" in p for p in problems)
    assert any("bad 'ts'" in p for p in problems)
