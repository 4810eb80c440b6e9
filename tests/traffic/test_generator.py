"""S21 integration tests: the open-loop generator against live systems.

Covers the subsystem's three load-bearing guarantees:

* **Determinism** — same seed, same arrival log, same outcome summary,
  same event count; different seeds genuinely differ.
* **Admission outcomes are first-class** — refusals surface as typed
  errors, land in per-class counters on both sides (client SLO recorder
  and server admission control), and leak nothing: no dangling parallel
  jobs, clean fsck, coherent partition caches afterwards — at
  ``bridge_server_count`` 1 and 4.
* **Queueing-model cross-check** — a single-class Poisson run through
  the measuring FIFO front-end reproduces the M/D/1 predicted wait from
  :mod:`repro.analysis.models` (reads have deterministic ~1 ms service
  at the Bridge, so M/D/1 is the exact model and M/M/1 the upper bound).
"""

import re

import pytest

from repro.analysis import md1_wait_seconds, mm1_wait_seconds
from repro.errors import (
    BridgeAdmissionError,
    BridgeOverloadError,
    BridgeThrottledError,
)
from repro.harness.builders import BridgeSystem
from repro.harness.experiments import (
    build_traffic_catalog,
    run_traffic_experiment,
)
from repro.sim import Simulator
from repro.storage import FixedLatency
from repro.traffic import SLORecorder, TrafficGenerator


def make_system(servers=1, seed=11, **kwargs):
    return BridgeSystem(
        4, seed=seed, disk_latency=FixedLatency(0.0005),
        bridge_server_count=servers, **kwargs,
    )


def drive(system, rate=120.0, duration=1.0, files=8, blocks=8):
    catalog = build_traffic_catalog(system, files, blocks)
    recorder = SLORecorder()
    generator = TrafficGenerator(system, catalog, recorder=recorder)
    system.run(generator.open_loop(rate, duration), name="traffic")
    return generator, recorder


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_same_seed_identical_arrivals_and_outcomes():
    first_gen, first_rec = drive(make_system(seed=11))
    second_gen, second_rec = drive(make_system(seed=11))
    assert first_gen.spawned == second_gen.spawned > 50
    assert first_gen.arrival_log == second_gen.arrival_log
    assert first_rec.summary(1.0) == second_rec.summary(1.0)


def test_distinct_seeds_distinct_arrival_orders():
    first_gen, _ = drive(make_system(seed=11))
    second_gen, _ = drive(make_system(seed=12))
    assert first_gen.arrival_log != second_gen.arrival_log


def test_same_seed_identical_experiment_rows():
    """The whole BENCH row replays byte-identically, including the
    simulated event count."""
    first = run_traffic_experiment(rate=80, duration=1.0, policy="fair",
                                   seed=21)
    second = run_traffic_experiment(rate=80, duration=1.0, policy="fair",
                                    seed=21)
    assert first == second
    assert first["events"] == second["events"]
    third = run_traffic_experiment(rate=80, duration=1.0, policy="fair",
                                   seed=22)
    assert third != first


def test_executors_draw_no_randomness():
    """Arrival descriptors depend only on the seed, not on execution:
    a generator against a slower system (higher disk latency changes
    every completion interleaving) logs the same arrivals."""
    fast_gen, _ = drive(make_system(seed=31))
    slow = BridgeSystem(4, seed=31, disk_latency=FixedLatency(0.02))
    slow_gen, _ = drive(slow)
    assert [entry[1:] for entry in fast_gen.arrival_log] == [
        entry[1:] for entry in slow_gen.arrival_log
    ]


def test_each_arrival_is_one_process(monkeypatch):
    """An arrival runs its operation inline in the process the source
    spawns for it: no per-arrival inner process to spawn and join."""
    names = []
    spawn = Simulator.spawn

    def recording_spawn(self, generator, name="process", daemon=False):
        names.append(name)
        return spawn(self, generator, name=name, daemon=daemon)

    system = make_system(seed=11)
    monkeypatch.setattr(Simulator, "spawn", recording_spawn)
    generator, _ = drive(system)
    arrivals = [name for name in names
                if re.search(r"(^|/)traffic\.\d+$", name)]
    assert len(arrivals) == generator.spawned > 50
    assert not [name for name in names if name.endswith(".op")]


# ---------------------------------------------------------------------------
# Admission outcomes: typed errors, counters, no leaks
# ---------------------------------------------------------------------------


def test_throttled_refusal_is_a_typed_error():
    system = make_system()
    build_traffic_catalog(system, 2, 4)
    system.install_admission({"policy": "token-bucket", "rate": 1})
    client = system.naive_client()

    def body():
        yield from client.open("tf000")  # takes the only banked token
        try:
            yield from client.open("tf001")
        except BridgeThrottledError as error:
            return error
        return None

    error = system.run(body())
    assert isinstance(error, BridgeThrottledError)
    assert isinstance(error, BridgeAdmissionError)
    counters = system.admission_counters()
    assert counters["throttled"]["meta"] == 1
    assert counters["admitted"]["meta"] == 1


def test_shed_request_reaches_its_client_as_overload_error():
    """End to end through the real envelope: four opens land together
    on a depth-1 queue; the server is busy with the first, the second
    waits, and the last two are shed — marked on the ``Request`` itself
    and answered with :class:`BridgeOverloadError`, never served."""
    system = make_system()
    build_traffic_catalog(system, 2, 4)
    system.install_admission({"policy": "bounded", "depth": 1})
    outcomes = []

    def opener():
        client = system.naive_client()
        try:
            yield from client.open("tf000")
        except BridgeOverloadError as error:
            outcomes.append(error)
        else:
            outcomes.append("ok")

    for index in range(4):
        system.sim.spawn(opener(), name=f"opener{index}")
    system.sim.run()
    shed = [o for o in outcomes if isinstance(o, BridgeOverloadError)]
    assert len(shed) == 2 and outcomes.count("ok") == 2
    assert all(isinstance(error, BridgeAdmissionError) for error in shed)
    counters = system.admission_counters()
    assert counters["shed"] == {"meta": 2}
    assert counters["admitted"] == {"meta": 2}


@pytest.mark.parametrize("servers", [1, 4])
def test_shed_traffic_leaves_no_leaks(servers):
    """Overdrive a fair-queued fabric so it sheds, then prove the
    aftermath is clean: counters agree across client and server,
    no parallel job state lingers, fsck passes, and the partition
    caches still serve the *new* generation after delete + re-create."""
    from repro.efs.fsck import check_system

    system = make_system(servers=servers, seed=9,
                         bridge_cache_blocks=64, prefetch_window=2)
    generator, recorder = drive(system, rate=300.0, duration=1.0)
    # Install-after-build means setup was not rate-limited; re-drive
    # with the policy installed.
    system.install_admission({"policy": "fair", "depth": 4})
    second = TrafficGenerator(system, generator.catalog, recorder=recorder)
    system.run(second.open_loop(300.0, 1.0), name="traffic-overload")

    shed = recorder.total("shed")
    assert shed > 0, "overload run failed to shed"
    counters = system.admission_counters()
    assert sum(counters["shed"].values()) == shed
    assert set(counters["shed"]) <= {"read", "write", "meta", "tool",
                                     "parallel"}
    # Admission decisions cover every RPC that reached a server.
    assert sum(counters["offered"].values()) == (
        sum(counters["admitted"].values())
        + sum(counters["throttled"].values())
        + shed
    )

    # No leaked parallel-job state on any partition.
    for bridge in system.bridges:
        assert bridge._jobs == {}
    # On-disk structures are intact.
    assert all(report.clean for report in check_system(system))

    # Partition caches stayed coherent: the recreate harness still
    # reads back the new generation through the (still-installed)
    # admission queue.
    client = system.naive_client()

    def recreate():
        yield from client.create("x")
        yield from client.write_all("x", [b"old-%d|" % i for i in range(6)])
        first = yield from client.read_all("x")
        yield from client.delete("x")
        yield from client.create("x")
        yield from client.write_all("x", [b"new-%d|" % i for i in range(6)])
        second_read = yield from client.read_all("x")
        return first, second_read

    first, second_read = system.run(recreate())
    assert [c[:6] for c in first] == [b"old-%d|" % i for i in range(6)]
    assert [c[:6] for c in second_read] == [b"new-%d|" % i for i in range(6)]


def test_shed_refusals_skip_expensive_server_work():
    """A shed request costs the fast-reject CPU, not a directory probe:
    overload outcomes must be cheap or shedding cannot protect the
    server."""
    run = run_traffic_experiment(rate=240, duration=1.0, policy="bounded",
                                 admission_params={"depth": 4}, seed=13)
    assert run["shed"] > 0
    # Shed latency is dominated by queue residence, never by service:
    # with depth 4 and ~ms service, refusals come back well under a
    # second even at 3x overload.
    shed_events = run["shed"]
    assert run["admission"] is not None
    assert sum(run["admission"]["shed"].values()) == shed_events


# ---------------------------------------------------------------------------
# Queueing-model cross-check (analysis satellite)
# ---------------------------------------------------------------------------


def test_md1_predicts_measured_queue_wait():
    """Pure reads have deterministic ~1 ms Bridge service, so the
    measured admission-queue wait at ρ ≈ 0.45 must match the M/D/1
    prediction once the constant network transit is calibrated out,
    with M/M/1 as a strict upper bound."""
    baseline = run_traffic_experiment(rate=10, duration=3.0, policy="fifo",
                                      mix={"read": 1.0}, seed=5)
    loaded = run_traffic_experiment(rate=450, duration=3.0, policy="fifo",
                                    mix={"read": 1.0}, seed=5)
    # The service rate is the deterministic per-request CPU: 1 ms.
    assert loaded["service_rate"] == pytest.approx(1000.0, rel=0.01)
    assert 0.35 < loaded["server_utilization"] < 0.55

    transit = baseline["queue_wait_mean"]  # ~network hop, no queueing
    measured = loaded["queue_wait_mean"] - transit
    lam = loaded["server_utilization"] * loaded["service_rate"]
    md1 = md1_wait_seconds(lam, loaded["service_rate"])
    mm1 = mm1_wait_seconds(lam, loaded["service_rate"])
    assert measured == pytest.approx(md1, rel=0.25)
    assert mm1 == pytest.approx(2.0 * md1, rel=1e-9)
    assert measured < mm1
    # The runner's own prediction fields agree with the direct math.
    assert loaded["predicted_wait_md1"] == pytest.approx(md1, rel=0.05)
