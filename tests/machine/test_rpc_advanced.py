"""Tests for gather, Detached handlers, tree spawn, and the relay."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.elastic import HeatMap
from repro.machine import (
    Client,
    Machine,
    Request,
    Response,
    Server,
    gather,
    gather_settled,
)
from repro.machine.rpc import Detached
from repro.sim import Simulator, Timeout
from repro.tools.base import tree_spawn

from tests.helpers import sequential_spawn


def make_machine(nodes=4):
    sim = Simulator(seed=91)
    return sim, Machine(sim, nodes)


class SlowServer(Server):
    def op_work(self, delay, tag):
        yield Timeout(delay)
        return tag

    def op_fail(self, message, delay=0.0):
        yield Timeout(delay)
        raise RuntimeError(message)

    def op_slow_detached(self, delay, tag):
        yield Timeout(0.001)  # synchronous part

        def finish():
            yield Timeout(delay)
            return tag

        return Detached(finish())

    def op_detached_error(self):
        yield Timeout(0.0)

        def finish():
            yield Timeout(0.001)
            raise ValueError("detached boom")

        return Detached(finish())


# ---------------------------------------------------------------------------
# gather
# ---------------------------------------------------------------------------


def test_gather_waits_for_slowest_and_keeps_order():
    sim, machine = make_machine(3)
    servers = [SlowServer(machine.node(i), f"s{i}") for i in (0, 1)]

    def body():
        calls = [
            (servers[0].port, "work", {"delay": 0.05, "tag": "slow"}, 0),
            (servers[1].port, "work", {"delay": 0.01, "tag": "fast"}, 0),
        ]
        values = yield from gather(machine.node(2), calls)
        return values, sim.now

    values, elapsed = sim.run_process(body())
    assert values == ["slow", "fast"]  # call order, not completion order
    assert elapsed >= 0.05


def test_gather_raises_first_error():
    sim, machine = make_machine(2)
    server = SlowServer(machine.node(0), "s")

    def body():
        calls = [
            (server.port, "fail", {"message": "nope"}, 0),
            (server.port, "work", {"delay": 0.0, "tag": "x"}, 0),
        ]
        try:
            yield from gather(machine.node(1), calls)
        except RuntimeError as exc:
            return str(exc)

    assert sim.run_process(body()) == "nope"


def test_gather_fails_fast_and_gather_settled_settles_all():
    """The two share one send-and-collect body and differ only in what
    an error reply becomes: ``gather`` raises at the *first* error in
    call order without waiting for later legs, ``gather_settled`` waits
    for every leg and hands the error back as that call's result."""
    def run(fan_out):
        sim, machine = make_machine(3)
        quick = SlowServer(machine.node(0), "quick")
        slow = SlowServer(machine.node(1), "slow")

        def body():
            calls = [
                (quick.port, "fail", {"message": "early"}, 0),
                (slow.port, "work", {"delay": 0.5, "tag": "late"}, 0),
            ]
            try:
                return (yield from fan_out(machine.node(2), calls)), sim.now
            except RuntimeError as exc:
                return exc, sim.now

        return sim.run_process(body())

    error, raised_at = run(gather)
    assert str(error) == "early" and error.gather_index == 0
    assert raised_at < 0.5  # the slow leg was still in flight

    settled, settled_at = run(gather_settled)
    assert settled_at >= 0.5
    (value, early), late = settled
    assert value is None and str(early) == "early"
    assert late == ("late", None)


def test_gather_empty_calls():
    sim, machine = make_machine(1)

    def body():
        values = yield from gather(machine.node(0), [])
        return values

    assert sim.run_process(body()) == []


def test_gather_error_carries_originating_call():
    """A failed fan-out leg names the port, method, and call index."""
    sim, machine = make_machine(3)
    ok = SlowServer(machine.node(0), "ok")
    bad = SlowServer(machine.node(1), "bad")

    def body():
        calls = [
            (ok.port, "work", {"delay": 0.0, "tag": "a"}, 0),
            (bad.port, "fail", {"message": "disk died"}, 0),
            (ok.port, "work", {"delay": 0.0, "tag": "b"}, 0),
        ]
        try:
            yield from gather(machine.node(2), calls)
        except RuntimeError as exc:
            return exc

    error = sim.run_process(body())
    assert isinstance(error, RuntimeError)  # original type preserved
    assert error.gather_port is bad.port
    assert error.gather_method == "fail"
    assert error.gather_index == 1
    if hasattr(error, "__notes__"):  # Python >= 3.11
        assert any("bad@node1" in note for note in error.__notes__)
        assert any("#1 of 3" in note for note in error.__notes__)


def test_gather_max_in_flight_windows_requests():
    """With a window of 1 the calls serialize; unbounded they overlap."""
    sim, machine = make_machine(3)
    servers = [SlowServer(machine.node(i), f"s{i}") for i in (0, 1)]

    def run_gather(limit):
        def body():
            start = sim.now
            calls = [
                (servers[0].port, "work", {"delay": 0.05, "tag": "a"}, 0),
                (servers[1].port, "work", {"delay": 0.05, "tag": "b"}, 0),
            ]
            values = yield from gather(
                machine.node(2), calls, max_in_flight=limit
            )
            return values, sim.now - start

        return sim.run_process(body())

    values, bounded_elapsed = run_gather(1)
    assert values == ["a", "b"]
    values, unbounded_elapsed = run_gather(None)
    assert values == ["a", "b"]
    # Two 50 ms calls: serialized >= 100 ms, overlapped ~ 50 ms.
    assert bounded_elapsed >= 0.1
    assert unbounded_elapsed < 0.1


def test_gather_max_in_flight_validation():
    sim, machine = make_machine(1)

    def body():
        yield from gather(machine.node(0), [], max_in_flight=0)

    with pytest.raises(Exception) as excinfo:
        sim.run_process(body())
    cause = excinfo.value.__cause__ or excinfo.value
    assert isinstance(cause, ValueError)


# ---------------------------------------------------------------------------
# Detached handlers
# ---------------------------------------------------------------------------


def test_detached_frees_the_server_loop():
    """A slow detached request must not delay a later fast request."""
    sim, machine = make_machine(2)
    server = SlowServer(machine.node(0), "s")
    completions = []

    def caller(method, label, **args):
        client = Client(machine.node(1), label)

        def body():
            value = yield from client.call(server.port, method, **args)
            completions.append((label, value, sim.now))

        return body()

    sim.spawn(caller("slow_detached", "detached", delay=1.0, tag="D"))

    def late_fast():
        yield Timeout(0.01)
        client = Client(machine.node(1), "fast")
        value = yield from client.call(server.port, "work", delay=0.0, tag="F")
        completions.append(("fast", value, sim.now))

    sim.spawn(late_fast())
    sim.run()
    order = [label for label, _v, _t in completions]
    assert order == ["fast", "detached"]
    by_label = {label: t for label, _v, t in completions}
    assert by_label["fast"] < 0.1
    assert by_label["detached"] >= 1.0


def test_detached_result_reaches_caller():
    sim, machine = make_machine(2)
    server = SlowServer(machine.node(0), "s")
    client = Client(machine.node(1))

    def body():
        return (
            yield from client.call(server.port, "slow_detached",
                                   delay=0.05, tag="payload")
        )

    assert sim.run_process(body()) == "payload"


def test_detached_error_reaches_caller():
    sim, machine = make_machine(2)
    server = SlowServer(machine.node(0), "s")
    client = Client(machine.node(1))

    def body():
        try:
            yield from client.call(server.port, "detached_error")
        except ValueError as exc:
            return str(exc)

    assert sim.run_process(body()) == "detached boom"


def test_every_handler_outcome_is_accounted_once():
    """Inline, detached and raising handlers share one loop epilogue:
    each adds one served request, its synchronous handler time (never
    the detached tail) and one heat record."""
    sim, machine = make_machine(2)
    server = SlowServer(machine.node(0), "s")
    server.heat = HeatMap(1, window=100.0, buckets=1)
    client = Client(machine.node(1))
    cases = [
        ("work", {"delay": 0.02, "tag": "x"}, 0.02),
        ("slow_detached", {"delay": 0.5, "tag": "d"}, 0.001),
        ("fail", {"message": "boom", "delay": 0.03}, 0.03),
    ]
    for method, args, handler_time in cases:
        served = server.requests_served
        busy = server.busy_time
        records = server.heat.recorded

        def body():
            try:
                yield from client.call(server.port, method, **args)
            except RuntimeError:
                pass

        sim.run_process(body())
        assert server.requests_served == served + 1, method
        assert server.busy_time - busy == pytest.approx(handler_time), method
        assert server.heat.recorded == records + 1, method
    heat_busy = server.heat.partition_rates(sim.now)[0] * 100.0
    assert heat_busy == pytest.approx(0.051)


# ---------------------------------------------------------------------------
# Tree spawn
# ---------------------------------------------------------------------------


def _worker(sim, tag, delay, log):
    yield Timeout(delay)
    log.append((tag, sim.now))
    return tag


def test_tree_spawn_returns_results_in_spec_order():
    sim, machine = make_machine(8)
    log = []
    specs = [
        (machine.node(i), _worker(sim, f"w{i}", 0.01, log), f"w{i}")
        for i in range(8)
    ]

    def body():
        return (yield from tree_spawn(machine, specs))

    results = sim.run_process(body())
    assert results == [f"w{i}" for i in range(8)]
    assert len(log) == 8


def test_tree_spawn_empty():
    sim, machine = make_machine(1)

    def body():
        return (yield from tree_spawn(machine, []))

    assert sim.run_process(body()) == []


def test_tree_spawn_faster_startup_than_sequential():
    """With many workers, the log-depth spawn tree starts the last worker
    sooner than a sequential spawner."""

    def last_start(spawner):
        sim, machine = make_machine(16)
        starts = []

        def worker(tag):
            starts.append(sim.now)
            yield Timeout(0.001)
            return tag

        specs = [(machine.node(i), worker(i), f"w{i}") for i in range(16)]

        def body():
            return (yield from spawner(machine, specs))

        sim.run_process(body())
        return max(starts)

    assert last_start(tree_spawn) < last_start(sequential_spawn)


def test_sequential_spawn_results_in_order():
    sim, machine = make_machine(4)
    log = []
    specs = [
        (machine.node(i), _worker(sim, i, 0.01 * (4 - i), log), f"w{i}")
        for i in range(4)
    ]

    def body():
        return (yield from sequential_spawn(machine, specs))

    assert sim.run_process(body()) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Relay broadcast
# ---------------------------------------------------------------------------


def test_relay_tree_reaches_every_target_in_order():
    from repro.core.relay import RelayServer

    sim, machine = make_machine(8)

    class Target(Server):
        def op_mark(self, value):
            yield Timeout(0.001)
            return value * 10

    targets = [Target(machine.node(i), f"t{i}") for i in range(8)]
    relays = [
        RelayServer(machine.node(i), targets[i].port, DEFAULT_CONFIG)
        for i in range(8)
    ]
    entries = [
        {"efs_port": targets[i].port, "relay_port": relays[i].port,
         "args": {"value": i}}
        for i in range(8)
    ]
    client = Client(machine.node(0))

    def body():
        return (
            yield from client.call(
                relays[0].port, "relay", entries=entries, relay_method="mark"
            )
        )

    results = sim.run_process(body())
    assert results == [i * 10 for i in range(8)]
    assert all(t.requests_served == 1 for t in targets)
