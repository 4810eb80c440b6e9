"""The two-tier event list replays ``(time, seq)`` order exactly.

The simulator keeps events due at the running instant on a FIFO beside
the heap of later instants.  Random schedules, made from inside running
events with every scheduling route the kernel has (zero, positive and
float-absorbed delays, spawns, process timeouts,
mailbox and reply-cell deliveries, parked or not), run on the real
kernel and on a heap-only reference model; both must run the same
events in the same order.  ``until`` and ``max_events`` stops, some in
the middle of an instant, must not change the order, and leave the same
number of events pending.
"""

import heapq
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
from repro.sim import Mailbox, ReplyCell, Simulator, Timeout

from tests.helpers import pending_events

#: 1e16 + 1.0 == 1e16: from that base a delay of 1.0 is absorbed.
_BASES = (0.0, 1e16)
_DELAYS = (0.0, 0.5, 1.0, 2.0, 3.0)
_ROUTES = ("later", "spawn", "timeout", "mailbox", "mailbox_queued",
           "cell", "cell_first")


def _ref_push(heap, seq, time, item):
    heapq.heappush(heap, (time, next(seq), item))


def _reference(root, base, stops):
    """Heap-only model: every route is ``(now + delay, seq)`` pushes."""
    heap, seq, log, pending, state = [], count(), [], [], {"now": 0.0, "n": 0}
    _ref_push(heap, seq, base, ("node", root))

    def run_one():
        time, _seq, item = heapq.heappop(heap)
        state["now"], state["n"] = time, state["n"] + 1
        if item[0] == "node":
            label, actions = item[1]
            log.append(label)
            for route, delay, child in actions:
                if route == "later":
                    _ref_push(heap, seq, time + delay, ("node", child))
                elif route == "spawn":
                    _ref_push(heap, seq, time, ("node", child))
                elif route == "timeout":  # the process's first step sleeps
                    _ref_push(heap, seq, time, ("sleep", delay, child))
                elif route in ("mailbox", "cell"):  # receiver parks first
                    _ref_push(heap, seq, time, ("park",))
                    _ref_push(heap, seq, time + delay, ("wake", child))
                else:  # delivered first, received in line
                    _ref_push(heap, seq, time, ("wake", child))
        elif item[0] == "sleep":
            _ref_push(heap, seq, time + item[1], ("node", item[2]))
        elif item[0] == "wake":
            _ref_push(heap, seq, time, ("node", item[1]))

    for kind, value in stops:
        if kind == "max":
            for _ in range(value):
                if heap:
                    run_one()
        elif value >= state["now"]:
            while heap and heap[0][0] <= value:
                run_one()
            state["now"] = value
        pending.append((len(heap), state["now"]))
    while heap:
        run_one()
    return log, pending, state["n"]


def _real(root, base, stops):
    sim = Simulator()
    log, pending = [], []

    def execute(node):
        label, actions = node
        log.append(label)
        for route, delay, child in actions:
            _ROUTE_IMPLS[route](sim, delay, child, execute)

    sim.call_later(base, execute, root)
    for kind, value in stops:
        if kind == "max":
            sim.run(max_events=value)
        else:
            sim.run(until=value)
        pending.append((pending_events(sim), sim.now))
    sim.run(check_deadlock=True)
    return log, pending, sim.events_executed


def _spawn_route(sim, delay, child, execute):
    def first_step():
        execute(child)
        return
        yield  # a generator

    sim.spawn(first_step())


def _timeout_route(sim, delay, child, execute):
    def sleeper():
        yield Timeout(delay)
        execute(child)

    sim.spawn(sleeper())


def _receiver(sim, waitable, execute):
    def body():
        execute((yield waitable))

    sim.spawn(body())


def _parked(make):
    def route(sim, delay, child, execute):
        box = make(sim)
        _receiver(sim, box, execute)
        sim.call_later(delay, box.deliver, child)
    return route


def _delivered_first(make):
    def route(sim, delay, child, execute):
        box = make(sim)
        box.deliver(child)
        _receiver(sim, box, execute)
    return route


def _mailbox(sim):
    return Mailbox(sim, "order")


def _cell(sim):
    return ReplyCell(None)


_ROUTE_IMPLS = {
    "later": lambda sim, delay, child, execute: sim.call_later(delay, execute, child),
    "spawn": _spawn_route,
    "timeout": _timeout_route,
    "mailbox": _parked(_mailbox),
    "mailbox_queued": _delivered_first(_mailbox),
    "cell": _parked(_cell),
    "cell_first": _delivered_first(_cell),
}


def _label(tree, labels):
    actions = [(route, delay, _label(child, labels))
               for route, delay, child in tree]
    return (next(labels), actions)


_trees = st.recursive(
    st.just([]),
    lambda children: st.lists(
        st.tuples(st.sampled_from(_ROUTES), st.sampled_from(_DELAYS), children),
        max_size=4,
    ),
    max_leaves=40,
)
_stops = st.lists(
    st.one_of(
        st.tuples(st.just("max"), st.integers(1, 12)),
        st.tuples(st.just("until"), st.sampled_from(_DELAYS)),
    ),
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(tree=_trees, base=st.sampled_from(_BASES), stops=_stops)
def test_two_tier_event_list_runs_in_time_seq_order(tree, base, stops):
    root = _label(tree, count())
    # ``until`` stops are offsets from the base, in ascending or any order:
    # one that lies in the past of the clock must be a no-op.
    stops = [(kind, value if kind == "max" else base + value)
             for kind, value in stops]
    assert _real(root, base, stops) == _reference(root, base, stops)


def test_float_absorbed_delay_is_due_now_and_keeps_its_place():
    sim = Simulator()
    log = []
    sim.call_later(1e16, lambda _: (sim.call_later(1.0, log.append, "absorbed"),
                                    log.append("first")))
    sim.call_later(1e16, log.append, "second")
    assert 1e16 + 1.0 == 1e16
    sim.run()
    assert log == ["first", "second", "absorbed"]
    assert sim.now == 1e16


def test_pending_events_counts_both_tiers():
    sim = Simulator()
    sim.call_later(0.0, lambda _: None)
    sim.call_later(1.0, lambda _: None)
    sim.call_later(1.0, lambda _: None)
    assert pending_events(sim) == 3
    sim.run(max_events=2)  # the due-now one, then one of the two at 1.0
    assert pending_events(sim) == 1
    assert sim.now == 1.0
    sim.run()
    assert pending_events(sim) == 0


def test_deadlock_is_not_reported_while_ready_entries_remain():
    sim = Simulator()

    def stuck():
        yield Mailbox(sim, "never")

    sim.spawn(stuck(), name="stuck")
    for _ in range(3):
        sim.call_later(0.0, lambda _: None)
    # Only due-now entries are left after one event, none on the heap:
    # that is pending work, not a deadlock.
    sim.run(max_events=1, check_deadlock=True)
    assert pending_events(sim) == 3
    with pytest.raises(DeadlockError):
        sim.run(check_deadlock=True)
