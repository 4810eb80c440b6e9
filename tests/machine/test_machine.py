"""Tests for nodes, networks, remote spawn, and the RPC layer."""

import pytest

from repro.config import DEFAULT_CONFIG, MessageCosts
from repro.errors import NoSuchNodeError
from repro.machine import (
    ButterflyNetwork,
    Client,
    EthernetNetwork,
    Machine,
    Request,
    Response,
    Server,
    ZeroLatencyNetwork,
)
from repro.machine.network import (
    ETHERNET_BANDWIDTH,
    ETHERNET_FRAME_OVERHEAD,
    ETHERNET_LOCAL_LATENCY,
)
from repro.sim import Simulator, Timeout


def make_machine(nodes=4, network=None):
    sim = Simulator(seed=1)
    machine = Machine(sim, nodes, network=network)
    return sim, machine


# ---------------------------------------------------------------------------
# Machine / Node basics
# ---------------------------------------------------------------------------


def test_machine_has_requested_nodes():
    _sim, machine = make_machine(8)
    assert len(machine.nodes) == 8
    assert machine.node(3).index == 3


def test_machine_rejects_zero_nodes():
    sim = Simulator()
    with pytest.raises(ValueError):
        Machine(sim, 0)


def test_node_lookup_out_of_range():
    _sim, machine = make_machine(2)
    with pytest.raises(NoSuchNodeError):
        machine.node(5)
    with pytest.raises(NoSuchNodeError):
        machine.node(-1)


def test_node_port_names_are_unique():
    _sim, machine = make_machine(1)
    node = machine.node(0)
    assert node.port().name != node.port().name


def test_node_spawn_registers_process():
    sim, machine = make_machine(1)
    node = machine.node(0)

    def body():
        yield Timeout(0.1)

    process = node.spawn(body(), name="w")
    assert process.name == "node0/w"
    assert sim.live_processes() == [process]
    sim.run()
    assert process.done
    assert sim.live_processes() == []  # the registry holds live ones only


# ---------------------------------------------------------------------------
# Message latency
# ---------------------------------------------------------------------------


def test_local_message_faster_than_remote():
    costs = MessageCosts(local_latency=0.0001, remote_latency=0.0005, per_byte=0.0)
    sim, machine = make_machine(2, network=ButterflyNetwork(costs))
    node0, node1 = machine.nodes
    port = node1.port("in")
    arrivals = []

    def receiver():
        for _ in range(2):
            msg = yield port.recv()
            arrivals.append((msg, sim.now))

    node1.spawn(receiver())
    node0.send(port, "remote")
    node1.send(port, "local")
    sim.run()
    assert dict(arrivals)["local"] == pytest.approx(0.0001)
    assert dict(arrivals)["remote"] == pytest.approx(0.0005)


def test_per_byte_cost_applies():
    costs = MessageCosts(local_latency=0.0, remote_latency=0.001, per_byte=1e-6)
    sim, machine = make_machine(2, network=ButterflyNetwork(costs))
    port = machine.node(1).port("in")
    arrivals = []

    def receiver():
        msg = yield port.recv()
        arrivals.append(sim.now)

    machine.node(1).spawn(receiver())
    machine.node(0).send(port, b"x" * 1000, size=1000)
    sim.run()
    assert arrivals[0] == pytest.approx(0.001 + 0.001)


def test_network_counters():
    _sim, machine = make_machine(2)
    port = machine.node(1).port("in")
    machine.node(0).send(port, "m", size=100)
    assert machine.network.messages_sent == 1
    assert machine.network.bytes_sent == 100


def test_zero_latency_network_delivers_instantly():
    sim, machine = make_machine(2, network=ZeroLatencyNetwork())
    port = machine.node(1).port("in")
    times = []

    def receiver():
        yield port.recv()
        times.append(sim.now)

    machine.node(1).spawn(receiver())
    machine.node(0).send(port, "m")
    sim.run()
    assert times == [0.0]


def test_ethernet_serializes_transmissions():
    sim = Simulator()
    network = EthernetNetwork(sim)
    machine = Machine(sim, 3, network=network)
    port = machine.node(2).port("in")
    arrivals = []

    def receiver():
        for _ in range(2):
            yield port.recv()
            arrivals.append(sim.now)

    machine.node(2).spawn(receiver())
    # Two 1000-byte messages at t=0: the second must wait for the first.
    machine.node(0).send(port, "a", size=1000)
    machine.node(1).send(port, "b", size=1000)
    sim.run()
    frame = ETHERNET_FRAME_OVERHEAD + 1000 / ETHERNET_BANDWIDTH
    assert arrivals == [pytest.approx(frame), pytest.approx(2 * frame)]


def test_ethernet_local_messages_bypass_bus():
    sim = Simulator()
    network = EthernetNetwork(sim)
    machine = Machine(sim, 2, network=network)
    port = machine.node(0).port("in")
    arrivals = []

    def receiver():
        yield port.recv()
        arrivals.append(sim.now)

    machine.node(0).spawn(receiver())
    machine.node(0).send(port, "m", size=10_000)
    sim.run()
    assert arrivals == [pytest.approx(ETHERNET_LOCAL_LATENCY)]


# ---------------------------------------------------------------------------
# Remote spawn
# ---------------------------------------------------------------------------


def test_spawn_remote_charges_latency_and_places_process():
    sim, machine = make_machine(2)
    target = machine.node(1)
    log = []

    def worker():
        yield Timeout(0.0)
        log.append(sim.now)

    def parent():
        process = yield machine.spawn_remote(target, worker(), "w")
        assert process.name.startswith("node1/")
        yield process.join()
        return sim.now

    end = sim.run_process(parent())
    spawn_cost = DEFAULT_CONFIG.cpu.spawn
    assert log[0] == pytest.approx(spawn_cost)
    assert end == pytest.approx(spawn_cost)


# ---------------------------------------------------------------------------
# RPC
# ---------------------------------------------------------------------------


class EchoServer(Server):
    def op_echo(self, text):
        yield Timeout(0.010)  # 10 ms of service time
        return text.upper()

    def op_fail(self):
        yield Timeout(0.0)
        raise ValueError("requested failure")

    def op_sized(self):
        yield Timeout(0.0)
        return Response(value=b"x" * 960, size=960)


def test_rpc_roundtrip():
    sim, machine = make_machine(2)
    server = EchoServer(machine.node(0), "echo")
    client = Client(machine.node(1))

    def body():
        value = yield from client.call(server.port, "echo", text="hi")
        return value, sim.now

    value, when = sim.run_process(body())
    assert value == "HI"
    # two remote hops + 10ms service
    expected = 2 * DEFAULT_CONFIG.messages.remote_latency + 0.010
    assert when == pytest.approx(expected)


def test_rpc_error_propagates_to_caller_not_server():
    sim, machine = make_machine(2)
    server = EchoServer(machine.node(0), "echo")
    client = Client(machine.node(1))

    def body():
        try:
            yield from client.call(server.port, "fail")
        except ValueError as exc:
            return str(exc)

    assert sim.run_process(body()) == "requested failure"
    assert not server.process.done  # server survived


def test_rpc_unknown_method():
    sim, machine = make_machine(1)
    server = EchoServer(machine.node(0), "echo")
    client = Client(machine.node(0))

    def body():
        try:
            yield from client.call(server.port, "nope")
        except NotImplementedError:
            return "caught"

    assert sim.run_process(body()) == "caught"


def test_rpc_server_serializes_requests():
    sim, machine = make_machine(3)
    server = EchoServer(machine.node(0), "echo")
    done_times = []

    def caller(node):
        client = Client(node)

        def body():
            yield from client.call(server.port, "echo", text="x")
            done_times.append(sim.now)

        return body

    machine.node(1).spawn(caller(machine.node(1))())
    machine.node(2).spawn(caller(machine.node(2))())
    sim.run()
    # Second caller waits for the first 10ms service slot.
    assert done_times[1] - done_times[0] == pytest.approx(0.010)
    assert server.requests_served == 2
    assert server.busy_time / sim.now > 0.5


def test_rpc_response_size_charged_on_wire():
    costs = MessageCosts(local_latency=0.0, remote_latency=0.0, per_byte=1e-6)
    sim = Simulator()
    machine = Machine(sim, 2, network=ButterflyNetwork(costs))
    server = EchoServer(machine.node(0), "echo")
    client = Client(machine.node(1))

    def body():
        value = yield from client.call(server.port, "sized")
        return value, sim.now

    value, when = sim.run_process(body())
    assert len(value) == 960
    assert when == pytest.approx(960e-6)


def test_oneway_send_has_no_reply():
    sim, machine = make_machine(2)
    server = EchoServer(machine.node(0), "echo")
    machine.node(1).send(server.port, Request("echo", {"text": "quiet"}))
    sim.run()
    assert server.requests_served == 1


def test_rpc_envelopes_are_slotted_with_every_field_declared():
    """A mark set on an undeclared name must raise, not vanish: the
    admission queue's shed mark is a declared field for that reason."""
    port = make_machine(1)[1].node(0).port()
    positional = Request("echo", {"text": "x"}, port, 5, None, "read", 1.5)
    keyword = Request(method="echo", args={"text": "x"}, reply_to=port,
                      size=5, traffic_class="read", sent_at=1.5)
    fields = ("method", "args", "reply_to", "size", "trace_ctx",
              "traffic_class", "sent_at", "admission_shed")
    assert [getattr(positional, f) for f in fields] == [
        getattr(keyword, f) for f in fields
    ] == ["echo", {"text": "x"}, port, 5, None, "read", 1.5, False]
    assert Request("echo").args == {}
    with pytest.raises(AttributeError):
        positional.admission_shedd = True
    with pytest.raises(AttributeError):
        Response(value=1).retries = 2
