"""Discrete-event simulation kernel.

This package replaces the BBN Butterfly / Chrysalis runtime the paper ran
on: generator-based processes, simulated time, mailboxes (and one-shot
reply cells) for message passing, and a FIFO lock for mutual exclusion.

Public surface::

    sim = Simulator(seed=42)
    box = Mailbox(sim, "requests")

    def server():
        while True:
            msg = yield box.recv()
            yield Timeout(0.015)          # 15 ms of simulated work
            msg["reply_to"].deliver("ok")

    sim.spawn(server(), name="server", daemon=True)
    sim.run()
"""

from repro.sim.channel import Mailbox, ReplyCell
from repro.sim.events import AllOf, Signal, Timeout
from repro.sim.process import Process, join_all
from repro.sim.rand import RandomStreams
from repro.sim.resources import Lock
from repro.sim.simulator import Simulator

__all__ = [
    "AllOf",
    "Lock",
    "Mailbox",
    "Process",
    "RandomStreams",
    "ReplyCell",
    "Signal",
    "Simulator",
    "Timeout",
    "join_all",
]
