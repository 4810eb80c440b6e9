"""Tests for the discrete-event kernel: clock, scheduling, processes."""

import pytest

from repro.errors import DeadlockError, InvalidYieldError, ProcessError
from repro.sim import Simulator, Timeout
from repro.storage import FixedLatency


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def body():
        yield Timeout(1.5)

    sim.spawn(body())
    end = sim.run()
    assert end == pytest.approx(1.5)


def test_zero_timeout_is_allowed():
    sim = Simulator()
    steps = []

    def body():
        steps.append(sim.now)
        yield Timeout(0.0)
        steps.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert steps == [0.0, 0.0]


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    times = []

    def body():
        for _ in range(5):
            yield Timeout(0.25)
            times.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert times == pytest.approx([0.25, 0.5, 0.75, 1.0, 1.25])


def test_two_processes_interleave_in_time_order():
    sim = Simulator()
    order = []

    def slow():
        yield Timeout(0.3)
        order.append(("slow", sim.now))

    def fast():
        yield Timeout(0.1)
        order.append(("fast", sim.now))

    sim.spawn(slow())
    sim.spawn(fast())
    sim.run()
    assert order == [("fast", pytest.approx(0.1)), ("slow", pytest.approx(0.3))]


def test_fifo_order_for_simultaneous_events():
    sim = Simulator()
    order = []

    def make(tag):
        def body():
            yield Timeout(1.0)
            order.append(tag)

        return body

    for tag in "abcde":
        sim.spawn(make(tag)())
    sim.run()
    assert order == list("abcde")


def test_process_result_returned_by_run_process():
    sim = Simulator()

    def body():
        yield Timeout(1.0)
        return 42

    assert sim.run_process(body()) == 42


def test_spawn_rejects_non_generator():
    sim = Simulator()

    def not_a_generator():
        return 1

    with pytest.raises(TypeError):
        sim.spawn(not_a_generator)


def test_invalid_yield_raises():
    sim = Simulator()

    def body():
        yield 17

    sim.spawn(body())
    with pytest.raises(InvalidYieldError):
        sim.run()


def test_process_exception_fails_fast_with_name():
    sim = Simulator()

    def body():
        yield Timeout(0.5)
        raise ValueError("boom")

    sim.spawn(body(), name="exploder")
    with pytest.raises(ProcessError) as info:
        sim.run()
    assert info.value.process_name == "exploder"
    assert isinstance(info.value.__cause__, ValueError)


def test_join_returns_result():
    sim = Simulator()

    def worker():
        yield Timeout(2.0)
        return "payload"

    def parent():
        child = sim.spawn(worker(), name="child")
        result = yield child.join()
        return (result, sim.now)

    result, when = sim.run_process(parent())
    assert result == "payload"
    assert when == pytest.approx(2.0)


def test_join_already_finished_process():
    sim = Simulator()

    def worker():
        yield Timeout(0.1)
        return 7

    def parent(child):
        yield Timeout(5.0)
        result = yield child.join()
        return result

    child = sim.spawn(worker())
    assert sim.run_process(parent(child)) == 7


def test_join_all_collects_results_in_order():
    from repro.sim import join_all

    sim = Simulator()

    def worker(delay, value):
        yield Timeout(delay)
        return value

    def parent():
        children = [
            sim.spawn(worker(0.3, "a")),
            sim.spawn(worker(0.1, "b")),
            sim.spawn(worker(0.2, "c")),
        ]
        results = yield join_all(children)
        return results, sim.now

    results, when = sim.run_process(parent())
    assert results == ["a", "b", "c"]
    assert when == pytest.approx(0.3)


def test_call_later_negative_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_later(-0.5, lambda _x: None)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: Timeout(float("nan")), id="Timeout"),
    pytest.param(lambda: Simulator().call_later(float("nan"), print),
                 id="call_later"),
    pytest.param(lambda: FixedLatency(float("nan")), id="FixedLatency"),
])
def test_nan_delays_and_latencies_are_rejected(make):
    # ``nan < 0`` is False: a NaN delay would run before every finite
    # one and leave the clock at NaN for the rest of the run.
    with pytest.raises(ValueError):
        make()


def test_deadlock_detection_flags_blocked_process():
    from repro.sim import Mailbox

    sim = Simulator()
    box = Mailbox(sim)

    def stuck():
        yield box.recv()

    sim.spawn(stuck(), name="stuck")
    with pytest.raises(DeadlockError) as info:
        sim.run()
    assert any("stuck" in str(p) for p in info.value.blocked)


def test_daemon_processes_exempt_from_deadlock_check():
    from repro.sim import Mailbox

    sim = Simulator()
    box = Mailbox(sim)

    def server():
        while True:
            yield box.recv()

    sim.spawn(server(), name="server", daemon=True)
    sim.run()  # must not raise


def test_events_executed_counts_across_runs():
    sim = Simulator()

    def body():
        yield Timeout(1.0)
        yield Timeout(1.0)

    sim.spawn(body())
    sim.run()
    first = sim.events_executed
    sim.spawn(body())
    sim.run()
    assert sim.events_executed == 2 * first


def test_live_processes_listing():
    from repro.sim import Mailbox

    sim = Simulator()
    box = Mailbox(sim)

    def server():
        while True:
            yield box.recv()

    def quick():
        yield Timeout(0.1)

    sim.spawn(server(), name="server", daemon=True)
    sim.spawn(quick(), name="quick")
    sim.run()
    live = sim.live_processes()
    assert [p.name for p in live] == ["server"]


def test_nested_spawn_during_run():
    sim = Simulator()
    log = []

    def child(n):
        yield Timeout(0.1)
        log.append(n)

    def parent():
        for n in range(3):
            sim.spawn(child(n))
            yield Timeout(1.0)

    sim.spawn(parent())
    sim.run()
    assert log == [0, 1, 2]


def test_run_process_raises_if_blocked_forever():
    from repro.sim import Mailbox

    sim = Simulator()
    box = Mailbox(sim)

    def stuck():
        yield box.recv()

    with pytest.raises(DeadlockError):
        sim.run_process(stuck())


def test_process_registry_holds_only_live_processes_in_spawn_order():
    """An open-loop run spawns one process per arrival; the registry
    must not retain the finished ones, and what it does hold stays in
    spawn order (``DeadlockError`` and ``live_processes`` report it)."""
    from repro.sim import Mailbox

    sim = Simulator()

    def waiter():
        yield Mailbox(sim).recv()

    def arrival(n):
        yield Timeout(0.001 * n)

    sim.spawn(waiter(), name="first")
    for n in range(1000):
        sim.spawn(arrival(n), name=f"arrival{n}")
    sim.spawn(waiter(), name="last")
    assert len(sim.live_processes()) == 1002
    with pytest.raises(DeadlockError) as info:
        sim.run()
    assert [p.name for p in sim.live_processes()] == ["first", "last"]
    assert "first" in str(info.value) and "last" in str(info.value)
    assert "arrival" not in str(info.value)


def test_a_caught_process_error_leaves_no_live_process():
    """A process that raises has ended: once its ``ProcessError`` is
    caught, the simulator does not list it and runs on to a clean drain."""
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise RuntimeError("boom")

    sim.spawn(bad(), name="bad")
    with pytest.raises(ProcessError):
        sim.run()
    assert sim.live_processes() == []

    def after():
        yield Timeout(1.0)

    sim.spawn(after(), name="after")
    assert sim.run() == pytest.approx(2.0)


def test_events_executed_counts_a_run_that_raises():
    """Every event dispatched counts, the one that raises too: a run
    cut short by a ``ProcessError`` keeps its events in the total."""
    sim = Simulator()

    def ticker():
        for _ in range(5):
            yield Timeout(1.0)

    def bad():
        yield Timeout(10.0)
        raise RuntimeError("boom")

    sim.spawn(ticker(), name="ticker")
    sim.spawn(bad(), name="bad")
    with pytest.raises(ProcessError):
        sim.run()
    # two starts, five ticks, and the resume that raised
    assert sim.events_executed == 8
    assert sim.now == pytest.approx(10.0)


def test_plain_run_reports_a_process_parked_forever():
    """No argument turns the check on: a drain that leaves a non-daemon
    process parked raises, and one joining a failed process counts too."""
    from repro.sim import Mailbox

    sim = Simulator()
    box = Mailbox(sim)

    def waiter():
        yield box.recv()

    def bad():
        yield Timeout(1.0)
        raise RuntimeError("boom")

    failing = sim.spawn(bad(), name="bad")

    def joiner():
        yield failing.join()

    sim.spawn(waiter(), name="waiter")
    sim.spawn(joiner(), name="joiner")
    with pytest.raises(ProcessError):
        sim.run()
    with pytest.raises(DeadlockError) as info:
        sim.run()
    assert [p.name for p in info.value.blocked] == ["waiter", "joiner"]
