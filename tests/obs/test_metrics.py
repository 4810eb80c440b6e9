"""Unit tests for the S19 metrics instruments and registry."""

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_and_gauge_basics():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    gauge = Gauge()
    gauge.set(2.5)
    gauge.set(1.0)
    assert gauge.value == 1.0


def test_histogram_bucketing_and_stats():
    hist = Histogram(bounds=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.5, 3.0, 10.0):
        hist.observe(value)
    assert hist.count == 5
    assert hist.counts == [1, 2, 1]
    assert hist.overflow == 1
    assert hist.min == 0.5 and hist.max == 10.0
    assert hist.mean == pytest.approx(16.5 / 5)


def test_histogram_quantiles_interpolate_deterministically():
    hist = Histogram(bounds=(1.0, 2.0))
    for _ in range(10):
        hist.observe(1.5)  # all land in the (1.0, 2.0] bucket
    # target = q * 10 inside a 10-count bucket spanning [1.0, 2.0]
    assert hist.quantile(0.5) == pytest.approx(1.5)
    assert hist.p50 == hist.quantile(0.5)
    # The raw interpolation would report the bucket edge (2.0), but no
    # observation ever exceeded 1.5 — tail quantiles clamp to the max.
    assert hist.quantile(1.0) == pytest.approx(1.5)
    # Identical observation streams give identical quantiles.
    other = Histogram(bounds=(1.0, 2.0))
    for _ in range(10):
        other.observe(1.5)
    assert (other.counts, other.overflow) == (hist.counts, hist.overflow)
    assert other.quantile(0.95) == hist.quantile(0.95)


def test_histogram_quantile_edge_cases():
    hist = Histogram(bounds=(1.0,))
    assert hist.quantile(0.5) == 0.0  # empty
    hist.observe(5.0)  # overflow only
    assert hist.quantile(0.99) == 5.0  # reports the observed max
    with pytest.raises(ValueError):
        hist.quantile(0.0)
    with pytest.raises(ValueError):
        Histogram(bounds=(2.0, 1.0))


def test_extreme_quantiles_with_one_sample():
    # S21 satellite: a single observation must report *itself* at every
    # quantile — interpolation cannot invent values never observed.
    hist = Histogram(bounds=(1.0, 2.0))
    hist.observe(1.5)
    for q in (0.001, 0.5, 0.99, 0.999, 1.0):
        assert hist.quantile(q) == pytest.approx(1.5)
    assert hist.p999 == pytest.approx(1.5)


def test_extreme_quantiles_with_two_samples():
    hist = Histogram(bounds=(1.0, 2.0, 4.0))
    hist.observe(1.2)
    hist.observe(3.0)
    # Low quantiles clamp to the smaller sample, high to the larger.
    assert hist.quantile(0.001) == pytest.approx(1.2)
    assert hist.quantile(0.999) == pytest.approx(3.0)
    assert hist.quantile(1.0) == pytest.approx(3.0)
    # The median stays an in-bucket interpolation between them.
    assert 1.2 <= hist.quantile(0.5) <= 3.0


def test_heavy_tail_quantiles_stay_ordered_and_bounded():
    hist = Histogram(bounds=(0.001, 0.01, 0.1, 1.0, 10.0))
    for _ in range(997):
        hist.observe(0.0005)
    for value in (2.0, 5.0, 50.0):  # 50.0 overflows the top bound
        hist.observe(value)
    quantiles = {q: hist.quantile(q) for q in (0.5, 0.99, 0.999, 1.0)}
    assert quantiles[0.5] == pytest.approx(0.0005, abs=1e-3)
    # p999 must see the tail but never exceed the observed max.
    assert quantiles[0.999] > quantiles[0.99]
    assert quantiles[0.999] <= 50.0
    assert quantiles[1.0] == pytest.approx(50.0)
    # Monotone in q.
    ordered = [quantiles[q] for q in (0.5, 0.99, 0.999, 1.0)]
    assert ordered == sorted(ordered)


def test_registry_snapshot_includes_p999():
    registry = MetricsRegistry()
    registry.histogram("y.latency").observe(0.015)
    snapshot = registry.snapshot()
    assert snapshot["y.latency"]["p999"] == pytest.approx(0.015)


def test_default_bounds_cover_the_cost_model():
    # Sub-ms CPU charges, the 15 ms disk, and multi-second phases all
    # land in finite buckets.
    for value in (0.00025, 0.015, 2.0):
        hist = Histogram()
        hist.observe(value)
        assert hist.overflow == 0
    assert list(DEFAULT_LATENCY_BOUNDS) == sorted(DEFAULT_LATENCY_BOUNDS)


def test_registry_get_or_create_and_type_guard():
    registry = MetricsRegistry()
    counter = registry.counter("a.b")
    assert registry.counter("a.b") is counter
    with pytest.raises(TypeError):
        registry.gauge("a.b")
    with pytest.raises(TypeError):
        registry.histogram("a.b")
    assert registry.names() == ["a.b"]


def test_registry_adopt_facade():
    registry = MetricsRegistry()
    external = Counter()
    registry.adopt("cache.hit", external)
    external.inc()
    assert registry.counter("cache.hit").value == 1
    # re-adopting the same object is idempotent; a different one is not
    registry.adopt("cache.hit", external)
    with pytest.raises(ValueError):
        registry.adopt("cache.hit", Counter())


def test_registry_snapshot_is_strict_json():
    import json

    registry = MetricsRegistry()
    registry.counter("x.count").inc(3)
    registry.gauge("x.level").set(0.5)
    registry.histogram("x.latency").observe(0.015)
    snapshot = registry.snapshot()
    text = json.dumps(snapshot, allow_nan=False)  # no inf/nan anywhere
    assert json.loads(text)["x.count"] == 3
    buckets = snapshot["x.latency"]["buckets"]
    assert buckets[-1][0] is None  # overflow edge rendered as null
    # prefix filtering
    assert registry.names("x.l") == ["x.latency", "x.level"]
    assert list(registry.snapshot("x.c")) == ["x.count"]
