"""Unit tests for causal spans and the critical-path partitioner.

These build synthetic span trees by hand (no simulator) so the
partition invariant — attribution sums to the root duration exactly —
is checked against known geometry.
"""

import pytest

from repro.obs import Observability, attribute, attribute_ops, critical_path
from repro.obs.export import span_tree_lines


class FakeSim:
    def __init__(self):
        self.now = 0.0


def make_obs():
    obs = Observability()
    obs.attach(FakeSim())
    return obs


def test_span_ids_are_monotonic_and_parents_link():
    obs = make_obs()
    root = obs.begin("op", "client")
    obs.set_current(root)
    child = obs.begin("msg", "net")
    assert root.id == 1 and child.id == 2
    assert child.parent_id == root.id
    orphan = obs.begin("other", "server", inherit=False)
    assert orphan.parent_id is None
    assert [s.id for s in obs.roots()] == [root.id, orphan.id]
    assert obs.children_index()[root.id] == [child]
    assert obs.find("ms") == [child]


def test_capacity_drops_and_counts():
    obs = make_obs()
    obs.capacity = 2
    a = obs.begin("a", "client")
    b = obs.begin("b", "client")
    c = obs.begin("c", "client")
    assert a is not None and b is not None and c is None
    assert obs.spans_dropped == 1
    obs.end(c)  # None-tolerant: no guard needed at call sites
    obs.end(a, extra=1)
    assert a.args == {"extra": 1}


def test_partition_invariant_with_gaps_and_nesting():
    obs = make_obs()
    sim = obs._sim
    root = obs.begin("op", "client")  # [0, 10]
    sim.now = 1.0
    net = obs.begin("msg", "net", parent=root)  # [1, 3]
    sim.now = 3.0
    obs.end(net)
    server = obs.begin("srv", "server", parent=root)  # [3, 9]
    sim.now = 4.0
    inner = obs.begin("msg2", "net", parent=server)  # [4, 6]
    sim.now = 6.0
    obs.end(inner)
    sim.now = 9.0
    obs.end(server)
    sim.now = 10.0
    obs.end(root)

    totals = attribute(obs, root)
    # gaps [0,1] and [9,10] are root self time (client); server self
    # time is [3,4] + [6,9]
    assert totals["client"] == pytest.approx(2.0)
    assert totals["net"] == pytest.approx(4.0)
    assert totals["server"] == pytest.approx(4.0)
    assert sum(totals.values()) == pytest.approx(root.duration)


def test_partition_excludes_background_and_unfinished_children():
    obs = make_obs()
    sim = obs._sim
    root = obs.begin("op", "client")
    sim.now = 2.0
    prefetch = obs.begin("prefetch", "server", parent=root, background=True)
    obs.end(prefetch, end=8.0)
    obs.begin("dangling", "net", parent=root)  # never ended
    sim.now = 10.0
    obs.end(root)
    totals = attribute(obs, root)
    assert totals["client"] == pytest.approx(10.0)
    assert totals["server"] == 0.0
    assert sum(totals.values()) == pytest.approx(root.duration)


def test_overlapping_children_never_double_count():
    obs = make_obs()
    sim = obs._sim
    root = obs.begin("op", "client")  # [0, 10]
    first = obs.begin("a", "net", parent=root)  # [0, 6]
    second = obs.begin("b", "server", parent=root)  # [0, 8], overlaps
    obs.end(first, end=6.0)
    obs.end(second, end=8.0)
    sim.now = 10.0
    obs.end(root)
    totals = attribute(obs, root)
    # walk cursor clips the overlap: a owns [0,6], b owns [6,8]
    assert totals["net"] == pytest.approx(6.0)
    assert totals["server"] == pytest.approx(2.0)
    assert sum(totals.values()) == pytest.approx(10.0)


def test_disk_self_time_splits_service_and_wait():
    obs = make_obs()
    sim = obs._sim
    root = obs.begin("op", "client")
    disk = obs.begin("disk0.read", "disk", parent=root)  # [0, 8]
    obs.end(disk, end=8.0, wait=1.0, service=3.0)  # 1:3 queue:disk
    sim.now = 8.0
    obs.end(root)
    totals = attribute(obs, root)
    assert totals["disk"] == pytest.approx(6.0)
    assert totals["queue"] == pytest.approx(2.0)
    assert sum(totals.values()) == pytest.approx(8.0)


def test_attribute_ops_aggregates_matching_roots():
    obs = make_obs()
    sim = obs._sim
    for index in range(3):
        sim.now = float(index)
        span = obs.begin(f"call.read", "client", inherit=False)
        sim.now = float(index) + 0.5
        obs.end(span)
    other = obs.begin("call.write", "client", inherit=False)
    obs.end(other, end=sim.now + 1.0)
    agg = attribute_ops(obs, "call.read")
    assert agg["ops"] == 3
    assert agg["latency_seconds"] == pytest.approx(1.5)
    assert sum(agg["attribution_seconds"].values()) == pytest.approx(1.5)
    assert agg["attribution_fractions"]["client"] == pytest.approx(1.0)


def test_attribute_ops_builds_the_children_index_once(monkeypatch):
    obs = make_obs()
    sim = obs._sim
    roots = []
    for index in range(5):
        sim.now = float(index)
        root = obs.begin("call.read", "client", inherit=False)
        child = obs.begin("disk0.read", "disk", parent=root)
        obs.end(child, end=sim.now + 0.25, wait=0.05, service=0.2)
        obs.end(root, end=sim.now + 0.5)
        roots.append(root)
    calls = []
    build = Observability.children_index

    def counted(self):
        calls.append(1)
        return build(self)

    monkeypatch.setattr(Observability, "children_index", counted)
    agg = attribute_ops(obs, "call.read")
    assert len(calls) == 1
    assert agg["ops"] == 5
    # The shared index attributes exactly as one walk per root does.
    per_root = [attribute(obs, root) for root in roots]
    for category, seconds in agg["attribution_seconds"].items():
        assert seconds == sum(totals[category] for totals in per_root)


def test_critical_path_follows_largest_child():
    obs = make_obs()
    sim = obs._sim
    root = obs.begin("op", "client")
    small = obs.begin("small", "net", parent=root)
    obs.end(small, end=1.0)
    big = obs.begin("big", "server", parent=root)
    leaf = obs.begin("leaf", "disk", parent=big)
    obs.end(leaf, end=7.0)
    obs.end(big, end=8.0)
    sim.now = 10.0
    obs.end(root)
    assert [s.name for s in critical_path(obs, root)] == ["op", "big", "leaf"]


def test_span_tree_lines_renders_depth_and_background():
    obs = make_obs()
    root = obs.begin("op", "client")
    obs.set_current(root)
    bg = obs.begin("prefetch[3]", "server", background=True)
    obs.end(bg)
    obs.end(root)
    lines = span_tree_lines(obs, root)
    assert lines[0].startswith("op [client]")
    assert lines[1].startswith("  prefetch[3] [server]")
    assert lines[1].endswith("(bg)")
