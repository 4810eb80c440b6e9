"""Error-path tests for the kernel: failures inside combinators, server
loops, and spawned subprocesses must surface loudly, never silently."""

import pytest

from repro.errors import ProcessError
from repro.sim import AllOf, Signal, Simulator, Timeout, join_all


def test_error_in_joined_child_fails_simulation():
    sim = Simulator()

    def child():
        yield Timeout(0.1)
        raise RuntimeError("child exploded")

    def parent():
        process = sim.spawn(child(), name="child")
        yield process.join()

    sim.spawn(parent(), name="parent")
    with pytest.raises(ProcessError) as info:
        sim.run()
    assert info.value.process_name == "child"


def test_error_inside_join_all_group():
    sim = Simulator()

    def good():
        yield Timeout(0.2)
        return "ok"

    def bad():
        yield Timeout(0.1)
        raise ValueError("bad worker")

    def parent():
        children = [sim.spawn(good(), name="good"), sim.spawn(bad(), name="bad")]
        yield join_all(children)

    sim.spawn(parent())
    with pytest.raises(ProcessError) as info:
        sim.run()
    assert info.value.process_name == "bad"


def test_error_before_first_yield():
    sim = Simulator()

    def body():
        raise KeyError("instant")
        yield Timeout(1.0)  # pragma: no cover

    sim.spawn(body(), name="instant")
    with pytest.raises(ProcessError):
        sim.run()


def test_generator_exhaustion_without_return():
    sim = Simulator()

    def body():
        yield Timeout(0.1)
        # falls off the end: result is None

    process = sim.spawn(body())
    sim.run()
    assert process.done
    assert process.result is None


def test_allof_mixed_fired_and_pending():
    sim = Simulator()
    done = Signal(sim)
    done.fire("already")
    pending = Signal(sim)
    sim.call_later(0.3, pending.fire, "later")

    def waiter():
        values = yield AllOf([done, pending])
        return values, sim.now

    values, when = sim.run_process(waiter())
    assert values == ["already", "later"]
    assert when == pytest.approx(0.3)


def test_rpc_handler_type_error_is_application_error():
    """Calling an op with wrong argument names ships a TypeError back to
    the caller instead of killing the server."""
    from repro.machine import Client, Machine, Server

    class Strict(Server):
        def op_echo(self, text):
            yield Timeout(0.0)
            return text

    sim = Simulator()
    machine = Machine(sim, 1)
    server = Strict(machine.node(0), "strict")
    client = Client(machine.node(0))

    def body():
        try:
            yield from client.call(server.port, "echo", wrong_name="x")
        except TypeError:
            pass
        # the server must still be alive and serving
        return (yield from client.call(server.port, "echo", text="alive"))

    assert sim.run_process(body()) == "alive"
    assert not server.process.done
