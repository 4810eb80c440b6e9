"""Edge-case tests: summary corner cases, Ethernet backlog, reprs, and
spawn validation."""

import pytest

from repro.machine import EthernetNetwork, Machine
from repro.sim import Simulator, Summary, Timeout


def test_summary_empty():
    summary = Summary()
    assert summary.mean == 0.0
    assert summary.variance == 0.0
    assert summary.count == 0
    assert "empty" in repr(summary)


def test_summary_single_observation():
    summary = Summary()
    summary.observe(5.0)
    assert summary.mean == 5.0
    assert summary.stddev == 0.0
    assert summary.min == summary.max == 5.0


def test_ethernet_backlog_visible():
    sim = Simulator()
    network = EthernetNetwork(sim, bandwidth_bytes_per_s=100.0,
                              frame_overhead=0.0)
    machine = Machine(sim, 2, network=network)
    port = machine.node(1).port("sink")
    for _ in range(5):
        machine.node(0).send(port, "m", size=100)
    # nothing transmitted yet at t=0 (transmitter hasn't run)
    assert network.backlog >= 4
    sim.run(until=2.5)
    assert network.backlog <= 3


def test_process_repr_states():
    sim = Simulator()

    def body():
        yield Timeout(0.1)

    process = sim.spawn(body(), name="repr-proc")
    assert "running" in repr(process)
    sim.run()
    assert "done" in repr(process)


def test_resource_repr_and_mailbox_repr():
    from repro.sim import Mailbox, Resource

    sim = Simulator()
    resource = Resource(sim, capacity=2, name="arms")
    assert "arms" in repr(resource)
    box = Mailbox(sim, "inbox")
    box.deliver("x")
    assert "inbox" in repr(box)
    assert "queued=1" in repr(box)
