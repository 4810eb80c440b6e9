"""Machine model: nodes, interconnect, remote process creation, RPC.

Replaces the BBN Butterfly / Chrysalis substrate of the paper's prototype.
"""

from repro.machine.machine import Machine
from repro.machine.network import (
    NETWORK_KINDS,
    ButterflyNetwork,
    EthernetNetwork,
    ZeroLatencyNetwork,
)
from repro.machine.node import Node, Port
from repro.machine.rpc import (
    Client,
    ReplyCell,
    Request,
    Response,
    Server,
    gather,
    gather_settled,
)

__all__ = [
    "ButterflyNetwork",
    "Client",
    "EthernetNetwork",
    "gather",
    "gather_settled",
    "Machine",
    "NETWORK_KINDS",
    "Node",
    "Port",
    "ReplyCell",
    "Request",
    "Response",
    "Server",
    "ZeroLatencyNetwork",
]
