"""The kernel's inline dispatch is an optimisation, never a behaviour.

``Process._step`` runs exact ``Timeout`` and ``Mailbox`` yields inline;
everything else — subclasses included — goes through the waitable's
``_wait``.  One mixed scenario (timeouts, mailbox ping-pong, RPCs through
``Client.call``, ``AllOf``, a ``Signal``) runs once on the real
classes and once on trivial subclasses; both runs must resume the same
processes at the same times with the same values, execute the same
number of events and return the same results.
"""

from repro.machine import Client, Machine, Server
from repro.sim import AllOf, Mailbox, Signal, Simulator, Timeout

_GENERIC_WAITS = []


class _GenericTimeout(Timeout):
    __slots__ = ()

    def _wait(self, process):
        _GENERIC_WAITS.append("timeout")
        super()._wait(process)


class _GenericMailbox(Mailbox):
    __slots__ = ()

    def _wait(self, process):
        _GENERIC_WAITS.append("mailbox")
        super()._wait(process)


class _EchoServer(Server):
    timeout = Timeout

    def op_echo(self, value, delay):
        yield self.timeout(delay)
        return value * 2


def _reseat(port, mailbox):
    """A port binds its mailbox's ``deliver`` once: swap both."""
    port.mailbox = mailbox
    port.deliver = mailbox.deliver


def _scenario(timeout, mailbox):
    sim = Simulator(seed=3)
    machine = Machine(sim, 2)
    server = _EchoServer(machine.node(0), "echo")
    server.timeout = timeout
    _reseat(server.port, mailbox(sim, "echo"))  # before its loop first runs
    client = Client(machine.node(1), "caller")
    _reseat(client.reply_port, mailbox(sim, "caller.reply"))
    left, right = mailbox(sim, "left"), mailbox(sim, "right")
    gate = Signal(sim)
    trace = []

    def note(name, value):
        trace.append((sim.now, name, value))

    def ticker():
        for i in range(5):
            note("ticker", (yield timeout(0.0005 * (i + 1))))
        gate.fire("open")
        note("ticker", (yield timeout(0.0)))
        return "ticked"

    def ping():
        for i in range(4):
            right.deliver(i)
            note("ping", (yield left.recv()))
        return "pinged"

    def pong():
        for _ in range(4):
            message = yield right  # the mailbox is its own waitable
            note("pong", message)
            yield timeout(0.0001)
            left.deliver(message * 10)

    def caller():
        out = []
        for i in range(3):
            out.append((yield from client.call(server.port, "echo",
                                               value=i, delay=0.001)))
            note("caller", out[-1])
        return out

    def gated():
        note("gated", (yield gate))
        again = yield gate  # already fired: resumes on the next round
        note("gated", again)
        return again

    def main():
        sim.spawn(pong(), name="pong")
        workers = [sim.spawn(body(), name=body.__name__)
                   for body in (ticker, ping, caller, gated)]
        results = yield AllOf([w.join() for w in workers])
        note("main.all", results)
        return results

    results = sim.run_process(main())
    return trace, sim.events_executed, results, sim.now


def test_inline_and_generic_dispatch_resume_identically():
    del _GENERIC_WAITS[:]
    fast = _scenario(Timeout, Mailbox)
    assert _GENERIC_WAITS == []
    generic = _scenario(_GenericTimeout, _GenericMailbox)
    assert {"timeout", "mailbox"} <= set(_GENERIC_WAITS)
    assert generic == fast
    trace, events, results, _now = fast
    assert results == ["ticked", "pinged", [0, 2, 4], "open"]
    assert events >= 40 and len(trace) >= 20
    assert {name for _t, name, _v in trace} == {
        "ticker", "ping", "pong", "caller", "gated", "main.all",
    }


def test_port_recv_and_the_mailbox_are_one_waitable():
    sim = Simulator()
    port = Machine(sim, 1).node(0).port("inbox")
    assert port.recv() is port.mailbox
    assert port.mailbox.recv() is port.mailbox
    for message in "abc":
        port.mailbox.deliver(message)

    def reader():
        return [(yield port.recv()), (yield port.mailbox),
                (yield port.mailbox.recv())]

    assert sim.run_process(reader()) == ["a", "b", "c"]
