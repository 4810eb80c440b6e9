"""The two-tier event list replays ``(time, seq)`` order exactly.

The simulator keeps events due at the running instant on a FIFO beside
the heap of later instants.  Random schedules, made from inside running
events with every scheduling route the kernel has (zero, positive and
float-absorbed delays, spawns, process timeouts,
mailbox and reply-cell deliveries, parked or not), run on the real
kernel and on a heap-only reference model; both must run the same
events in the same order.
"""

import heapq
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Mailbox, ReplyCell, Simulator, Timeout

#: 1e16 + 1.0 == 1e16: from that base a delay of 1.0 is absorbed.
_BASES = (0.0, 1e16)
_DELAYS = (0.0, 0.5, 1.0, 2.0, 3.0)
_ROUTES = ("later", "spawn", "timeout", "mailbox", "mailbox_queued",
           "cell", "cell_first")


def _ref_push(heap, seq, time, item):
    heapq.heappush(heap, (time, next(seq), item))


def _reference(root, base):
    """Heap-only model: every route is ``(now + delay, seq)`` pushes."""
    heap, seq, log, state = [], count(), [], {"n": 0}
    _ref_push(heap, seq, base, ("node", root))

    def run_one():
        time, _seq, item = heapq.heappop(heap)
        state["n"] += 1
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

    while heap:
        run_one()
    return log, state["n"]


def _real(root, base):
    sim = Simulator()
    log = []

    def execute(node):
        label, actions = node
        log.append(label)
        for route, delay, child in actions:
            _ROUTE_IMPLS[route](sim, delay, child, execute)

    sim.call_later(base, execute, root)
    sim.run()
    return log, sim.events_executed


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


@settings(max_examples=150, deadline=None)
@given(tree=_trees, base=st.sampled_from(_BASES))
def test_two_tier_event_list_runs_in_time_seq_order(tree, base):
    root = _label(tree, count())
    assert _real(root, base) == _reference(root, base)


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


def test_deadlock_is_not_reported_while_ready_entries_remain():
    sim = Simulator()
    box = Mailbox(sim, "late")
    got = []

    def waiter():
        got.append((yield box))

    sim.spawn(waiter(), name="waiter")
    for _ in range(3):
        sim.call_later(0.0, lambda _: None)
    sim.call_later(0.0, box.deliver, "late")
    # Once the waiter parks, only due-now entries are left, none on the
    # heap: pending work, not a deadlock; the last one wakes it.
    sim.run()
    assert got == ["late"]
