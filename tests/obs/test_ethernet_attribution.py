"""Ethernet transit attribution: the shared bus prices a frame only when
the transmitter drains it, so the observability layer learns the exact
arrival time via ``on_bus_drain`` — frame spans carry a wait/service
breakdown and the critical-path partitioner splits bus contention into
``net`` (time on the wire) vs ``queue`` (time waiting for the medium).

The scenario is the classic two-sender contention case: both clients
transmit at t=0, so the second sender's frame waits exactly one
frame-time behind the first.  Every number below is derived by hand from
the bus constants: a request frame costs ``O + size / B`` and an empty
response frame ``O``.
"""

import pytest

from repro.machine import Client, EthernetNetwork, Machine
from repro.machine.network import ETHERNET_BANDWIDTH as B
from repro.machine.network import ETHERNET_FRAME_OVERHEAD as O
from repro.machine.rpc import Server
from repro.obs import Observability, attribute
from repro.sim import Simulator, Timeout


#: The two request sizes and their frame times on the wire.
SIZES = (1250, 625)
F0, F1 = (O + size / B for size in SIZES)


class EchoServer(Server):
    def op_echo(self, tag):
        yield Timeout(0.0)
        return tag


def run_two_sender_contention():
    obs = Observability()
    sim = Simulator(obs=obs)
    network = EthernetNetwork(sim)
    machine = Machine(sim, 3, network=network)
    server = EchoServer(machine.node(2), "echo")
    results = {}

    def sender(index, size):
        client = Client(machine.node(index), name=f"c{index}")
        value = yield from client.call(server.port, "echo", size=size,
                                       tag=index)
        results[index] = (value, sim.now)

    # Sender 0 transmits the larger request (frame F0), sender 1 the
    # smaller (frame F1); both enter the bus queue at t=0.
    machine.node(0).spawn(sender(0, SIZES[0]))
    machine.node(1).spawn(sender(1, SIZES[1]))
    sim.run()
    return obs, results


def test_bus_drain_stamps_exact_wait_and_service():
    obs, results = run_two_sender_contention()
    assert results[0][0] == 0 and results[1][0] == 1

    frames = [s for s in obs.find("msg") if s.args.get("wait") is not None]
    assert len(frames) == 4  # two requests + two responses
    by_interval = {(round(s.start, 6), round(s.end, 6)): s for s in frames}

    def at(start, end):
        return by_interval[(round(start, 6), round(end, 6))]

    # Request 0: head of the queue — all wire, no wait.
    req0 = at(0.0, F0)
    assert req0.args["wait"] == pytest.approx(0.0)
    assert req0.args["service"] == pytest.approx(F0)
    # Request 1: queued behind request 0's full frame.
    req1 = at(0.0, F0 + F1)
    assert req1.args["wait"] == pytest.approx(F0)
    assert req1.args["service"] == pytest.approx(F1)
    # Response 0 (sent at F0): waits for request 1's frame to clear.
    rsp0 = at(F0, F0 + F1 + O)
    assert rsp0.args["wait"] == pytest.approx(F1)
    assert rsp0.args["service"] == pytest.approx(O)
    # Response 1 (sent at F0 + F1): waits for response 0's frame.
    rsp1 = at(F0 + F1, F0 + F1 + 2 * O)
    assert rsp1.args["wait"] == pytest.approx(O)
    assert rsp1.args["service"] == pytest.approx(O)

    # The drain hook removed the zero-width marker from every frame.
    assert not any("queued" in s.args for s in frames)


def test_contention_attribution_is_exact_net_vs_queue():
    obs, _results = run_two_sender_contention()
    roots = [s for s in obs.roots() if s.name == "call.echo"]
    assert len(roots) == 2
    first = next(s for s in roots if s.node == 0)
    second = next(s for s in roots if s.node == 1)

    # Sender 0: request rides the wire immediately (F0 net); its
    # response spends F1 queued behind sender 1's frame + O on the wire.
    totals = attribute(obs, first)
    assert first.duration == pytest.approx(F0 + F1 + O)
    assert totals["net"] == pytest.approx(F0 + O)
    assert totals["queue"] == pytest.approx(F1)
    assert totals["client"] == pytest.approx(0.0)
    assert sum(totals.values()) == pytest.approx(first.duration)

    # Sender 1: request waits F0 for the bus then F1 on the wire; the
    # response waits O behind response 0 then O on the wire.
    totals = attribute(obs, second)
    assert second.duration == pytest.approx(F0 + F1 + 2 * O)
    assert totals["net"] == pytest.approx(F1 + O)
    assert totals["queue"] == pytest.approx(F0 + O)
    assert totals["client"] == pytest.approx(0.0)
    assert sum(totals.values()) == pytest.approx(second.duration)


def test_deliver_at_matches_drain_time_for_requests_and_replies():
    obs, _results = run_two_sender_contention()
    # The mailbox-wait logic keys off deliver_at: with exact stamping,
    # neither request sat in the server's mailbox (the server was idle
    # when each frame arrived), so no queue span is attributed there.
    assert not obs.find("mailbox_wait")
