"""Tests for mailboxes, the lock, signals and the AllOf combinator."""

import pytest

from repro.sim import (
    AllOf,
    Lock,
    Mailbox,
    Signal,
    Simulator,
    Timeout,
)


# ---------------------------------------------------------------------------
# Mailbox
# ---------------------------------------------------------------------------


def test_mailbox_delivers_queued_message():
    sim = Simulator()
    box = Mailbox(sim)
    box.deliver("hello")

    def receiver():
        msg = yield box.recv()
        return msg

    assert sim.run_process(receiver()) == "hello"


def test_mailbox_blocks_until_delivery():
    sim = Simulator()
    box = Mailbox(sim)

    def sender():
        yield Timeout(1.0)
        box.deliver("late")

    def receiver():
        msg = yield box.recv()
        return (msg, sim.now)

    sim.spawn(sender())
    msg, when = sim.run_process(receiver())
    assert msg == "late"
    assert when == pytest.approx(1.0)


def test_mailbox_fifo_ordering():
    sim = Simulator()
    box = Mailbox(sim)
    for i in range(5):
        box.deliver(i)

    def receiver():
        got = []
        for _ in range(5):
            got.append((yield box.recv()))
        return got

    assert sim.run_process(receiver()) == [0, 1, 2, 3, 4]


def test_mailbox_multiple_waiters_fifo():
    sim = Simulator()
    box = Mailbox(sim)
    order = []

    def waiter(tag):
        msg = yield box.recv()
        order.append((tag, msg))

    def feeder():
        yield Timeout(1.0)
        box.deliver("x")
        box.deliver("y")

    sim.spawn(waiter("first"))
    sim.spawn(waiter("second"))
    sim.spawn(feeder())
    sim.run()
    assert order == [("first", "x"), ("second", "y")]


def test_mailbox_len_and_peek():
    sim = Simulator()
    box = Mailbox(sim)
    assert len(box) == 0
    assert box.peek() is None
    box.deliver("a")
    box.deliver("b")
    assert len(box) == 2
    assert box.peek() == "a"
    assert (box.poll(), box.poll(), box.poll()) == ("a", "b", None)


def test_mailbox_has_waiters():
    sim = Simulator()
    box = Mailbox(sim)

    def waiter():
        yield box.recv()

    sim.spawn(waiter(), daemon=True)
    sim.run()
    assert box.has_waiters


# ---------------------------------------------------------------------------
# Signal
# ---------------------------------------------------------------------------


def test_signal_wakes_all_waiters():
    sim = Simulator()
    sig = Signal(sim)
    woken = []

    def waiter(tag):
        value = yield sig
        woken.append((tag, value, sim.now))

    def firer():
        yield Timeout(2.0)
        sig.fire("go")

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.spawn(firer())
    sim.run()
    assert sorted(woken) == [
        ("a", "go", pytest.approx(2.0)),
        ("b", "go", pytest.approx(2.0)),
    ]


def test_signal_fire_idempotent():
    sim = Simulator()
    sig = Signal(sim)
    sig.fire(1)
    sig.fire(2)
    assert sig.value == 1


def test_signal_after_fire_returns_immediately():
    sim = Simulator()
    sig = Signal(sim)
    sig.fire("early")

    def waiter():
        value = yield sig
        return (value, sim.now)

    assert sim.run_process(waiter()) == ("early", 0.0)


# ---------------------------------------------------------------------------
# AllOf
# ---------------------------------------------------------------------------


def test_allof_waits_for_slowest():
    sim = Simulator()
    sigs = [Signal(sim) for _ in range(3)]
    for index, delay in enumerate([0.3, 0.1, 0.2]):
        sim.call_later(delay, sigs[index].fire, index)

    def waiter():
        values = yield AllOf(sigs)
        return (values, sim.now)

    values, when = sim.run_process(waiter())
    assert values == [0, 1, 2]
    assert when == pytest.approx(0.3)


def test_allof_with_all_fired_already():
    sim = Simulator()
    sigs = [Signal(sim) for _ in range(2)]
    for index, sig in enumerate(sigs):
        sig.fire(index * 10)

    def waiter():
        values = yield AllOf(sigs)
        return values

    assert sim.run_process(waiter()) == [0, 10]


def test_allof_empty_list():
    sim = Simulator()

    def waiter():
        values = yield AllOf([])
        return values

    assert sim.run_process(waiter()) == []


# ---------------------------------------------------------------------------
# Lock
# ---------------------------------------------------------------------------


def test_lock_serializes_holders():
    sim = Simulator()
    lock = Lock("disk")
    completions = []

    def user(tag):
        yield lock.acquire()
        yield Timeout(1.0)
        lock.release()
        completions.append((tag, sim.now))

    for tag in range(3):
        sim.spawn(user(tag))
    sim.run()
    assert completions == [
        (0, pytest.approx(1.0)),
        (1, pytest.approx(2.0)),
        (2, pytest.approx(3.0)),
    ]
    assert not lock.held


def test_lock_release_without_acquire_is_error():
    with pytest.raises(RuntimeError):
        Lock().release()


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------


def test_random_streams_deterministic_and_independent():
    from repro.sim import RandomStreams

    streams_a = RandomStreams(seed=7)
    streams_b = RandomStreams(seed=7)
    seq_a = [streams_a.stream("disk").random() for _ in range(5)]
    seq_b = [streams_b.stream("disk").random() for _ in range(5)]
    assert seq_a == seq_b
    other = [streams_a.stream("keys").random() for _ in range(5)]
    assert other != seq_a


def test_random_streams_order_independent():
    from repro.sim import RandomStreams

    streams_a = RandomStreams(seed=1)
    streams_a.stream("x")
    first = streams_a.stream("y").random()

    streams_b = RandomStreams(seed=1)
    second = streams_b.stream("y").random()
    assert first == second
