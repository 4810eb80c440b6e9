"""S19 acceptance: determinism, attribution, and trace-export integration.

Three properties the subsystem promises:

* **obs off is free**: an instrumented build with ``obs=False`` executes
  the exact event sequence of the seed (verified by running the same
  workload obs-off and obs-on and comparing the kernel's event count,
  the final clock, and every server's request count);
* **obs on is deterministic**: identical runs produce byte-identical
  Chrome traces, identical span trees, and identical histogram buckets;
* **attribution is exact**: the critical-path partition sums to the
  measured op latency (far inside the 1% acceptance bar) and matches
  the closed-form cost model per category.
"""

import json
import tracemalloc

import pytest

from repro.analysis.models import naive_read_components
from repro.harness import paper_system
from repro.obs import (
    attribute_ops,
    export_chrome_trace,
    validate_trace_document,
)
from repro.workloads import build_file, read_file, write_then_stream


def _fingerprint(p, blocks, obs):
    """What a run's event sequence leaves behind: events executed, the
    final clock, and the request count of every server process."""
    system = paper_system(p, obs=obs)
    system.run(write_then_stream(system, "f", blocks))
    servers = system.bridges + system.efs_servers + system.relays
    return (system.sim.events_executed, system.sim.now,
            [server.requests_served for server in servers])


def test_obs_off_replays_exact_seed_event_sequence():
    # The acceptance workload: p = 8, 256-block naive sequential read.
    bare = _fingerprint(8, 256, obs=False)
    assert bare[0] > 0 and sum(bare[2]) > 256
    assert _fingerprint(8, 256, obs=True) == bare
    # And a second bare run replays the first exactly (seed determinism).
    assert _fingerprint(8, 256, obs=False) == bare


def test_obs_on_runs_are_byte_identical(tmp_path):
    paths = []
    snapshots = []
    trees = []
    for label in ("a", "b"):
        system = paper_system(4, obs=True, prefetch_window=2)
        system.run(write_then_stream(system, "f", 128))
        path = tmp_path / f"{label}.json"
        export_chrome_trace(system.obs, str(path))
        paths.append(path)
        snapshots.append(system.obs.metrics.snapshot())
        trees.append([
            (s.id, s.parent_id, s.name, s.category, s.start, s.end,
             s.background)
            for s in system.obs.spans
        ])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert trees[0] == trees[1]
    # histogram buckets (and every other instrument) identical
    assert snapshots[0] == snapshots[1]
    assert any(
        isinstance(value, dict) and value["count"] > 0
        for value in snapshots[0].values()
    )


def test_attribution_sums_to_measured_latency_and_matches_model():
    # E21: the p = 8, 256-block stream stays resident in the EFS track
    # caches, so the model's ``resident=True`` arm applies.
    system = paper_system(8, obs=True)
    system.run(write_then_stream(system, "obsfile", 256))
    agg = attribute_ops(system.obs, "call.seq_read")
    assert agg["ops"] == 256
    # Acceptance bar is 1%; the partition is exact by construction.
    assert sum(agg["attribution_seconds"].values()) == pytest.approx(
        agg["latency_seconds"], rel=1e-9
    )
    # Per-category match against the closed-form naive-read model.
    model = naive_read_components(256, resident=True)
    for category, predicted in model.items():
        assert agg["attribution_seconds"].get(category, 0.0) == \
            pytest.approx(predicted, rel=0.01, abs=1e-9), category
    assert system.obs.spans_dropped == 0


def test_registry_holds_the_drivers_own_histograms():
    system = paper_system(4, obs=True)
    system.run(write_then_stream(system, "f", 128))
    disk = system.disks[0]
    service = system.obs.metrics.get("disk0.service")
    assert service is disk.service_times
    assert system.obs.metrics.get("disk0.wait") is disk.wait_times
    assert service.count == disk.reads + disk.writes > 0


def test_obs_keeps_nothing_per_event_once_spans_are_capped():
    system = paper_system(4, obs=True)
    system.obs.capacity = 0
    build_file(system, "soak", [bytes([i % 256]) * 960 for i in range(512)])
    read_file(system, "soak")  # warm: every lazily built instrument exists
    disk_ops = sum(disk.total_operations for disk in system.disks)
    only_obs = [tracemalloc.Filter(True, "*/repro/obs/*")]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_obs)
        for _ in range(4):
            read_file(system, "soak")
        after = tracemalloc.take_snapshot().filter_traces(only_obs)
    finally:
        tracemalloc.stop()
    assert sum(disk.total_operations for disk in system.disks) > disk_ops
    growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert growth <= 4096


def test_exported_trace_loads_full_span_tree(tmp_path):
    # Oversubscribe the EFS track caches (> 64 blocks per LFS) so the
    # read stream reaches the disks, and enable read-ahead so prefetch
    # children appear in the tree.
    path = tmp_path / "trace.json"
    system = paper_system(
        4, obs=True, prefetch_window=2, trace_export=str(path)
    )
    system.run(write_then_stream(system, "f", 320))
    document = json.loads(path.read_text())
    assert validate_trace_document(document) == []

    events = [e for e in document["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["span_id"]: e for e in events}

    def ancestors(event):
        chain = []
        while event is not None:
            chain.append(event)
            parent = event["args"].get("parent_id")
            event = by_id.get(parent)
        return chain

    # Bridge -> LFS -> disk: some disk read's ancestry passes through an
    # EFS handler and a Bridge-side span and terminates at a client root.
    disk_reads = [
        e for e in events
        if e["cat"] == "disk" and ".read" in e["name"]
    ]
    assert disk_reads, "no disk read spans in the exported trace"
    full_chains = 0
    for event in disk_reads:
        names = [a["name"] for a in ancestors(event)]
        cats = [a["cat"] for a in ancestors(event)]
        if (any(n.startswith("efs") for n in names)
                and any(n.startswith(("bridge", "prefetch", "call."))
                        for n in names)
                and cats[-1] == "client"):
            full_chains += 1
    assert full_chains > 0

    # Prefetch children: background fetch spans exist and have subtrees.
    prefetch = [e for e in events if e["name"].startswith("prefetch[")]
    assert prefetch, "no prefetch spans in the exported trace"
    assert all(e["args"].get("background") for e in prefetch)
    prefetch_ids = {e["args"]["span_id"] for e in prefetch}
    children_of_prefetch = [
        e for e in events if e["args"].get("parent_id") in prefetch_ids
    ]
    assert children_of_prefetch, "prefetch spans have no children"
    # Prefetch spans parent under a demand op, linking them to the tree.
    assert any(
        e["args"].get("parent_id") is not None for e in prefetch
    )
