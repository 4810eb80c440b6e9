"""S21 unit tests: arrival processes and workload samplers.

Everything here draws from plain ``random.Random`` instances — the
samplers must be pure functions of the RNG stream, because the traffic
generator's determinism guarantee reduces to exactly that.
"""

import random

import pytest

from repro.traffic import (
    CLASSES,
    BurstArrivals,
    PoissonArrivals,
    RequestMix,
    ZipfCatalog,
    make_arrivals,
    sample_request,
)
from repro.traffic.workload import TOOL_SPAN

# ---------------------------------------------------------------------------
# Arrivals
# ---------------------------------------------------------------------------


def drain(process, seed, n=2_000):
    rng = random.Random(seed)
    return [process.next_delay(rng) for _ in range(n)]


def test_poisson_interarrivals_match_rate():
    gaps = drain(PoissonArrivals(200.0), seed=1, n=20_000)
    mean = sum(gaps) / len(gaps)
    assert abs(mean - 1 / 200.0) < 0.0005
    assert all(g >= 0 for g in gaps)


def test_poisson_same_seed_same_sequence():
    assert drain(PoissonArrivals(50.0), seed=7) == drain(
        PoissonArrivals(50.0), seed=7
    )
    assert drain(PoissonArrivals(50.0), seed=7) != drain(
        PoissonArrivals(50.0), seed=8
    )


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)


def test_burst_mean_rate_formula():
    """``rate`` is the long-run mean: with the default dwell times the
    burst arm offers the labelled load, not 1.5x it."""
    process = BurstArrivals(100.0, burst_factor=4.0,
                            calm_mean=0.5, burst_mean=0.1)
    gaps = drain(process, seed=5, n=50_000)
    assert len(gaps) / sum(gaps) == pytest.approx(100.0, rel=0.05)


def test_burst_long_run_rate_approaches_mean_rate():
    process = BurstArrivals(100.0, burst_factor=4.0,
                            calm_mean=0.2, burst_mean=0.05)
    gaps = drain(process, seed=3, n=50_000)
    measured = len(gaps) / sum(gaps)
    assert measured == pytest.approx(process.rate, rel=0.05)


def test_burst_same_seed_same_sequence():
    def fresh():
        return BurstArrivals(80.0, burst_factor=5.0)

    assert drain(fresh(), seed=11) == drain(fresh(), seed=11)
    assert drain(fresh(), seed=11) != drain(fresh(), seed=12)


def test_burst_validates_parameters():
    with pytest.raises(ValueError):
        BurstArrivals(0.0)
    with pytest.raises(ValueError):
        BurstArrivals(10.0, burst_factor=0.5)
    with pytest.raises(ValueError):
        BurstArrivals(10.0, calm_mean=0.0)


def test_make_arrivals_dispatch():
    assert isinstance(make_arrivals("poisson", 10.0), PoissonArrivals)
    burst = make_arrivals("burst", 10.0, burst_factor=2.0)
    assert isinstance(burst, BurstArrivals)
    assert burst.burst_factor == 2.0
    with pytest.raises(ValueError):
        make_arrivals("uniform", 10.0)


# ---------------------------------------------------------------------------
# Workload samplers
# ---------------------------------------------------------------------------


def test_zipf_catalog_rank_zero_is_hottest():
    catalog = ZipfCatalog([f"f{i}" for i in range(16)], 8, skew=1.1)
    rng = random.Random(5)
    counts = {}
    for _ in range(20_000):
        name = catalog.sample(rng)
        counts[name] = counts.get(name, 0) + 1
    assert counts["f0"] > counts["f1"] > counts["f15"]
    # Zipf 1.1 over 16 files: the head takes a dominant share.
    assert counts["f0"] / 20_000 > 0.25


def test_zipf_catalog_is_deterministic():
    catalog = ZipfCatalog(["a", "b", "c"], 4)
    first = [catalog.sample(random.Random(2)) for _ in range(1)]
    second = [catalog.sample(random.Random(2)) for _ in range(1)]
    assert first == second
    assert len(catalog.names) == 3


def test_zipf_catalog_validates():
    with pytest.raises(ValueError):
        ZipfCatalog([], 4)
    with pytest.raises(ValueError):
        ZipfCatalog(["a"], 0)
    with pytest.raises(ValueError):
        ZipfCatalog(["a"], 4, skew=0.0)


def test_request_mix_rejects_unknown_class():
    with pytest.raises(ValueError):
        RequestMix({"read": 1.0, "scan": 1.0})
    with pytest.raises(ValueError):
        RequestMix({"read": 0.0})


def test_request_mix_single_class_always_wins():
    mix = RequestMix({"write": 1.0})
    rng = random.Random(9)
    assert {mix.sample(rng) for _ in range(100)} == {"write"}


def test_request_mix_default_covers_all_classes():
    mix = RequestMix()
    rng = random.Random(4)
    seen = {mix.sample(rng) for _ in range(5_000)}
    assert seen == set(CLASSES)


def test_sample_request_tool_gets_contiguous_span():
    catalog = ZipfCatalog(["a", "b"], 10)
    mix = RequestMix({"tool": 1.0})
    rng = random.Random(1)
    request = sample_request(0, catalog, mix, rng)
    assert request.cls == "tool"
    assert request.blocks == list(range(request.blocks[0],
                                        request.blocks[0] + TOOL_SPAN))
    assert all(0 <= b < 10 for b in request.blocks)
