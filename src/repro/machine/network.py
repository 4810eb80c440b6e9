"""Interconnect models.

The prototype ran on a BBN Butterfly, whose switch gives near-uniform
latency between any pair of nodes (messages are atomic queues in shared
memory).  The paper notes the design "could be realized equally well on
any local area network", so an Ethernet-style shared-bus model is provided
too — it serializes all transmissions and makes the paper's remark about
communication bottlenecks on broadcast networks measurable.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Tuple

from repro.config import MessageCosts
from repro.sim import Mailbox, Timeout


class ButterflyNetwork:
    """Uniform-latency switch: latency depends only on locality and size."""

    def __init__(self, costs: MessageCosts) -> None:
        self.costs = costs
        self.messages_sent = 0
        self.bytes_sent = 0

    def send(self, sim, src_node, port, message: Any, size: int = 0):
        """Deliver ``message`` to ``port`` after the modeled latency.

        Returns the latency charged, so instrumentation layered above
        (:class:`repro.obs.Observability`) can price the transit without
        re-deriving the network model.
        """
        self.messages_sent += 1
        self.bytes_sent += size
        costs = self.costs  # MessageCosts.latency, inline
        latency = ((costs.local_latency if src_node is port.node
                    else costs.remote_latency) + size * costs.per_byte)
        now = sim.now
        time = now + latency
        if time == now:
            sim._ready.append((port.deliver, message))
        else:
            sim._seq += 1
            heappush(sim._heap, (time, sim._seq, port.deliver, message))
        return latency


class ZeroLatencyNetwork:
    """Instant delivery — for unit tests that isolate higher layers."""

    def __init__(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0

    def send(self, sim, src_node, port, message: Any, size: int = 0):
        self.messages_sent += 1
        self.bytes_sent += size
        sim._ready.append((port.deliver, message))
        return 0.0


#: The Ethernet's medium: 10 Mb/s, a per-frame overhead, and the
#: latency of a same-node message, which bypasses the bus.
ETHERNET_BANDWIDTH = 1_250_000.0
ETHERNET_FRAME_OVERHEAD = 0.2e-3
ETHERNET_LOCAL_LATENCY = 0.1e-3


class EthernetNetwork:
    """A shared broadcast bus: one transmission at a time, per-byte cost.

    Local (same-node) messages bypass the bus.  Remote messages queue at a
    single transmitter process, which models the medium's serialization —
    the reason the paper insists on moving computation to the data when
    aggregate I/O bandwidth exceeds network bandwidth.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.messages_sent = 0
        self.bytes_sent = 0
        self._queue: Deque[Tuple[Any, Any, int]] = deque()
        self._wakeup = Mailbox(sim, "ethernet.wakeup")
        sim.spawn(self._transmitter(), name="ethernet", daemon=True)

    def send(self, sim, src_node, port, message: Any, size: int = 0):
        self.messages_sent += 1
        self.bytes_sent += size
        if src_node is port.node:
            sim._schedule(ETHERNET_LOCAL_LATENCY, port.deliver, message)
            return ETHERNET_LOCAL_LATENCY
        self._queue.append((port, message, size))
        self._wakeup.deliver(None)
        # Remote messages queue behind the shared bus; the arrival time is
        # unknown until the transmitter gets to them.
        return None

    def _transmitter(self):
        while True:
            yield self._wakeup.recv()
            while self._queue:
                port, message, size = self._queue.popleft()
                started = self.sim.now
                yield Timeout(ETHERNET_FRAME_OVERHEAD
                              + size / ETHERNET_BANDWIDTH)
                port.deliver(message)
                # Transit is priced only now that the frame has cleared
                # the shared medium; tell the observability layer so the
                # net vs. queue split is exact (no scheduling happens
                # here — the event sequence is unchanged).
                obs = self.sim.obs
                if obs is not None:
                    obs.on_bus_drain(message, started, self.sim.now)

#: Registered interconnects, by name: ``factory(sim, config) -> network``
#: (the data form of a system's ``network`` field).
NETWORK_KINDS = {
    "butterfly": lambda sim, config: ButterflyNetwork(config.messages),
    "ethernet": lambda sim, config: EthernetNetwork(sim),
}
