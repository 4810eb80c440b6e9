"""S24 heat-map invariants: attribution, windowed decay, determinism.

The control plane's decisions are only as good as its accounting, so
these tests pin the write side (who gets charged for what) and the read
side (what decays, what survives, what order the hot list comes out in)
without spinning up a simulator — the map is pure arithmetic over
``(partition, name, busy, now)`` observations.
"""

import pytest

from repro.core.ops import CONTROL_OPS
from repro.elastic import HeatMap


class FakeRequest:
    def __init__(self, method, **args):
        self.method = method
        self.args = args


def test_record_attributes_partition_and_name():
    heat = HeatMap(2, window=2.0, buckets=4)
    heat.record(1, FakeRequest("read_block", name="f"), busy=0.4, now=0.1)
    assert heat.partition_rates(0.1) == [0.0, pytest.approx(0.2)]
    assert heat.name_heat(0.1) == [("f", pytest.approx(0.2),
                                    pytest.approx(0.5))]


def test_control_traffic_is_not_charged():
    heat = HeatMap(2)
    for method in sorted(CONTROL_OPS):
        heat.record(0, FakeRequest(method, name="f"), busy=1.0, now=0.1)
    assert heat.partition_rates(0.1) == [0.0, 0.0]
    assert heat.name_heat(0.1) == []
    assert heat.recorded == 0


def test_batched_busy_splits_evenly_across_names():
    heat = HeatMap(1, window=2.0)
    request = FakeRequest("create_many", names=["a", "b", "c", "d"])
    heat.record(0, request, busy=0.8, now=0.1)
    rates = dict((n, busy) for n, busy, _c in heat.name_heat(0.1))
    assert rates == {n: pytest.approx(0.1) for n in "abcd"}
    # The partition got the whole 0.8 once, not 4x.
    assert heat.partition_rates(0.1)[0] == pytest.approx(0.4)


def test_nameless_requests_count_against_the_partition_only():
    heat = HeatMap(1)
    heat.record(0, FakeRequest("get_info"), busy=0.2, now=0.1)
    assert heat.partition_rates(0.1)[0] > 0
    assert heat.name_heat(0.1) == []


def test_old_load_decays_out_of_the_window():
    heat = HeatMap(1, window=2.0, buckets=4)
    heat.observe(0, "f", busy=1.0, now=0.0)
    assert heat.partition_rates(0.0)[0] == pytest.approx(0.5)
    # Still (partially) visible inside the window...
    assert heat.partition_rates(1.9)[0] == pytest.approx(0.5)
    # ...gone once the window has slid past it.
    assert heat.partition_rates(4.0)[0] == 0.0
    assert heat.name_heat(4.0) == []


def test_imbalance_is_peak_over_mean_and_zero_when_idle():
    heat = HeatMap(4)
    assert heat.imbalance(0.0) == 0.0
    for partition, busy in enumerate((0.4, 0.1, 0.1, 0.1)):
        heat.observe(partition, None, busy=busy, now=0.1)
    assert heat.imbalance(0.1) == pytest.approx(0.4 / 0.175)
    # ``active`` restricts the denominator (post-shrink retired slots).
    assert heat.imbalance(0.1, active=1) == pytest.approx(1.0)


def test_name_heat_order_is_deterministic_under_ties():
    heat = HeatMap(1)
    for name in ("zz", "aa", "mm"):
        heat.observe(0, name, busy=0.3, now=0.1)
    assert [n for n, _b, _c in heat.name_heat(0.1)] == ["aa", "mm", "zz"]
    assert [n for n, _b, _c in heat.name_heat(0.1, top=2)] == ["aa", "mm"]


def test_name_cap_prunes_stale_names_not_hot_ones():
    heat = HeatMap(1, window=2.0, buckets=4, max_names=4)
    for i in range(4):
        heat.observe(0, f"old{i}", busy=0.1, now=0.0)
    # Far in the future the old names' buckets have all expired; new
    # arrivals displace them instead of growing the table.
    heat.observe(0, "hot", busy=0.5, now=10.0)
    tracked = {name for name, _b, _c in heat.name_heat(10.0)}
    assert tracked == {"hot"}
    assert len(heat._names) <= 4


def test_publish_refreshes_the_gauge_family():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    heat = HeatMap(2)
    heat.observe(0, "f", busy=0.6, now=0.1)
    heat.publish(registry, 0.1)
    assert registry.gauge("rebalance.heat.partition0").value == \
        pytest.approx(0.3)
    assert registry.gauge("rebalance.heat.partition1").value == 0.0
    assert registry.gauge("rebalance.heat.imbalance").value == \
        pytest.approx(2.0)
    assert registry.gauge("rebalance.heat.names_tracked").value == 1.0


def test_snapshot_is_plain_data():
    heat = HeatMap(2)
    heat.observe(1, "f", busy=0.2, now=0.1)
    snap = heat.snapshot(0.1)
    assert snap["imbalance"] == pytest.approx(2.0)
    assert snap["hot_names"][0]["name"] == "f"
    assert snap["recorded"] == 1


def test_heatmap_validates_parameters():
    with pytest.raises(ValueError):
        HeatMap(0)
    with pytest.raises(ValueError):
        HeatMap(1, window=0.0)
    with pytest.raises(ValueError):
        HeatMap(1, buckets=0)
