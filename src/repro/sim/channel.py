"""Mailboxes: the message-passing primitive of the simulated machine.

The Butterfly implementation of Bridge passes messages through atomic
queues in shared memory; on an Ethernet it would use datagrams.  Either
way the abstraction is the same: a :class:`Mailbox` is an unbounded FIFO
of messages that one process at a time can block on.

Delivery latency is *not* a mailbox concern — the network model
(:mod:`repro.machine.network`) computes a latency and calls
:meth:`Mailbox.deliver` at the right simulated time.  ``deliver`` itself
is instantaneous.  A :class:`ReplyCell` is the one-message form: what a
single request's reply lands in.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SecondReceiverError


class Mailbox:
    """An unbounded FIFO message queue with one blocking receiver.

    A mailbox is its own receive waitable: ``message = yield mailbox``
    (``recv()`` returns the mailbox itself, for readability at call
    sites).  Every mailbox has one reader — a server loop, a client's
    reply port, a device's wake-up — so at most one process is parked
    on it; a second raises :class:`~repro.errors.SecondReceiverError`."""

    __slots__ = ("sim", "name", "_queue", "_waiter")

    def __init__(self, sim, name: str = "mailbox") -> None:
        self.sim = sim
        self.name = name
        self._queue: Deque[Any] = deque()
        self._waiter = None

    # ------------------------------------------------------------------

    def deliver(self, message: Any) -> None:
        """Make ``message`` available now (called by the network model).

        If a process is blocked in :meth:`recv`, it is resumed immediately;
        otherwise the message queues until someone asks for it.
        """
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            self.sim._ready.append((waiter._resume, message))
        else:
            self._queue.append(message)

    def recv(self) -> "Mailbox":
        """Waitable receive: ``message = yield mailbox.recv()``."""
        return self

    def _wait(self, process) -> None:
        # Process._step runs this body inline for exact Mailbox instances.
        queue = self._queue
        if queue:
            process.sim._schedule(0.0, process._resume, queue.popleft())
        elif self._waiter is None:
            self._waiter = process
        else:
            raise SecondReceiverError(self, process)

    def poll(self) -> Optional[Any]:
        """Non-blocking receive: pop the next queued message, or ``None``.

        Used by servers that front their mailbox with an admission queue
        (S21): drain everything that has already arrived, hand it to the
        scheduler, then fall back to a blocking :meth:`recv` only when
        nothing is pending."""
        queue = self._queue
        return queue.popleft() if queue else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Mailbox({self.name!r}, queued={len(self._queue)})"


class ReplyCell:
    """A one-shot mailbox: where the one reply to one request lands.

    It answers to the two names a network uses to deliver — ``node``,
    where its receiver runs (the kernel never reads it), and
    :meth:`deliver` — and is received from by yielding the cell itself,
    which :meth:`Process._step <repro.sim.process.Process._step>` does
    inline for this exact class (it has no generic ``_wait``).  A reply
    that finds its receiver parked puts the resume on the simulator's
    ready queue, as :meth:`Mailbox.deliver` does; one that lands first
    is held until the receiver yields the cell.  It names no server, so
    a request a server forwards still replies straight to the caller,
    and it dies with its request."""

    __slots__ = ("node", "waiter", "value")

    def __init__(self, node: Any) -> None:
        self.node = node
        self.waiter = None
        self.value = None

    def deliver(self, message: Any) -> None:
        waiter = self.waiter
        if waiter is None:
            self.value = message
        else:
            waiter.sim._ready.append((waiter._resume, message))
