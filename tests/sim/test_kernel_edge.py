"""Edge-case tests: Ethernet backlog, reprs, and spawn validation."""

import pytest

from repro.machine import EthernetNetwork, Machine
from repro.machine.network import ETHERNET_BANDWIDTH, ETHERNET_FRAME_OVERHEAD
from repro.sim import Mailbox, Simulator, Timeout


def test_ethernet_backlog_visible():
    sim = Simulator()
    network = EthernetNetwork(sim)
    machine = Machine(sim, 2, network=network)
    port = machine.node(1).port("sink")
    for _ in range(5):
        machine.node(0).send(port, "m", size=100)
    # nothing transmitted yet at t=0 (transmitter hasn't run)
    assert network.backlog >= 4
    sim.run(until=2.5 * (ETHERNET_FRAME_OVERHEAD + 100 / ETHERNET_BANDWIDTH))
    assert network.backlog <= 3


def test_process_repr_states():
    sim = Simulator()

    def body():
        yield Timeout(0.1)

    process = sim.spawn(body(), name="repr-proc")
    assert "running" in repr(process)
    sim.run()
    assert "done" in repr(process)


def test_mailbox_repr():
    sim = Simulator()
    box = Mailbox(sim, "inbox")
    box.deliver("x")
    assert "inbox" in repr(box)
    assert "queued=1" in repr(box)
