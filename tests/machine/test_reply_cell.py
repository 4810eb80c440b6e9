"""The reply cell: where the one reply to one fan-out leg lands.

A :class:`~repro.machine.rpc.ReplyCell` is a request's ``reply_to`` that
is not a port.  Its contract: a reply that finds the caller parked
resumes it at once, one that lands first is held until the caller waits,
an envelope a server forwards still replies to the original caller, and
every fan-out form hands back one result per leg, in call order.
"""

import pytest

from repro.machine import (
    Machine,
    ReplyCell,
    Request,
    Response,
    Server,
    gather,
    gather_settled,
)
from repro.sim import Simulator, Timeout


class _Echo(Server):
    def op_echo(self, value, delay=0.0, name=None):
        yield Timeout(delay)
        return (self.name, value)

    def op_fail(self, message):
        yield Timeout(0.0)
        raise RuntimeError(message)


def _machine(nodes=3):
    sim = Simulator(seed=5)
    return sim, Machine(sim, nodes)


@pytest.mark.parametrize("wait_first", [True, False])
def test_the_reply_is_returned_whether_it_lands_before_or_after_the_wait(
        wait_first):
    sim, machine = _machine(2)
    server = _Echo(machine.node(0), "echo")
    node = machine.node(1)
    seen = []

    def caller():
        cell = ReplyCell(node)
        node.send(server.port, Request("echo", {"value": 7}, cell))
        if not wait_first:
            yield Timeout(1.0)  # long after the reply has landed
            assert cell.value is not None and cell.waiter is None
        response = yield cell
        seen.append(sim.now)
        return response.value

    assert sim.run_process(caller()) == ("echo", 7)
    # parked: resumed the moment the reply lands; held: at the wait
    assert (seen[0] < 1.0) == wait_first


def test_a_forwarded_envelope_replies_to_the_original_caller():
    sim, machine = _machine(3)
    old_home = _Echo(machine.node(0), "old")
    new_home = _Echo(machine.node(1), "new")
    old_home.forward_to = {"moved": new_home.port}
    caller_node = machine.node(2)

    def caller():
        return (yield from gather(caller_node, [
            (old_home.port, "echo", {"value": 1, "name": "moved"}, 0),
            (old_home.port, "echo", {"value": 2, "name": "stays"}, 0),
        ]))

    assert sim.run_process(caller()) == [("new", 1), ("old", 2)]
    assert old_home.forwarded == 1 and new_home.requests_served == 1


@pytest.mark.parametrize("window", [None, 1, 2])
def test_every_fan_out_form_returns_one_result_per_leg_in_call_order(window):
    sim, machine = _machine(4)
    servers = [_Echo(machine.node(i), f"s{i}") for i in range(3)]
    node = machine.node(3)
    # later legs answer first: arrival order is the reverse of call order
    calls = [(servers[i % 3].port, "echo",
              {"value": i, "delay": 0.01 * (5 - i)}, 0) for i in range(5)]
    failing = calls[:2] + [(servers[0].port, "fail", {"message": "x"}, 0)]

    def caller():
        gathered = yield from gather(node, calls, max_in_flight=window)
        settled = yield from gather_settled(node, failing,
                                            max_in_flight=window)
        return gathered, settled

    gathered, settled = sim.run_process(caller())
    assert gathered == [(f"s{i % 3}", i) for i in range(5)]
    assert [value for value, _error in settled[:2]] == [("s0", 0), ("s1", 1)]
    assert settled[2][0] is None and str(settled[2][1]) == "x"


def test_a_failed_leg_still_names_its_port_method_and_index():
    sim, machine = _machine(3)
    good = _Echo(machine.node(0), "good")
    bad = _Echo(machine.node(1), "bad")
    node = machine.node(2)

    def caller():
        yield from gather(node, [
            (good.port, "echo", {"value": 0}, 0),
            (bad.port, "fail", {"message": "disk gone"}, 0),
        ], max_in_flight=1)

    with pytest.raises(Exception) as info:
        sim.run_process(caller())
    error = info.value.__cause__
    assert isinstance(error, RuntimeError) and str(error) == "disk gone"
    assert (error.gather_port, error.gather_method, error.gather_index) == (
        bad.port, "fail", 1)
    if hasattr(error, "add_note"):
        assert "'fail' on bad@node1 (gather call #1 of 2)" in error.__notes__[0]


def test_a_cell_is_not_a_port():
    sim, machine = _machine(1)
    cell = ReplyCell(machine.node(0))
    assert cell.node is machine.node(0)
    assert not hasattr(cell, "mailbox")
    cell.deliver(Response(value=3))
    assert cell.value.value == 3
