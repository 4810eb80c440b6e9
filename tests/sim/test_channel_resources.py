"""Tests for mailboxes, the lock, signals and the AllOf combinator."""

import pytest

from repro.errors import SecondReceiverError
from repro.sim import (
    AllOf,
    Lock,
    Mailbox,
    Signal,
    Simulator,
    Timeout,
)
from tests.sim.test_fast_path import _GenericMailbox


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


@pytest.mark.parametrize("mailbox", [Mailbox, _GenericMailbox],
                         ids=["inline", "generic"])
def test_mailbox_refuses_a_second_receiver(mailbox):
    """One receiver slot: a second process parking on a mailbox that
    already holds one is refused, whether ``Process._step`` dispatches
    the wait inline or through ``_wait``."""
    sim = Simulator()
    box = mailbox(sim, "inbox")

    def waiter():
        yield box.recv()

    sim.spawn(waiter(), name="first")
    sim.spawn(waiter(), name="second")
    with pytest.raises(SecondReceiverError, match="'first'.*'second'"):
        sim.run()


def test_mailbox_poll_drains_in_order():
    sim = Simulator()
    box = Mailbox(sim)
    assert box.poll() is None
    box.deliver("a")
    box.deliver("b")
    assert (box.poll(), box.poll(), box.poll()) == ("a", "b", None)


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
