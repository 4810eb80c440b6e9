"""Mailboxes: the message-passing primitive of the simulated machine.

The Butterfly implementation of Bridge passes messages through atomic
queues in shared memory; on an Ethernet it would use datagrams.  Either
way the abstraction is the same: a :class:`Mailbox` is an unbounded FIFO
of messages that processes can block on.

Delivery latency is *not* a mailbox concern — the network model
(:mod:`repro.machine.network`) computes a latency and calls
:meth:`Mailbox.deliver` at the right simulated time.  ``deliver`` itself
is instantaneous.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Optional


class Mailbox:
    """An unbounded FIFO message queue with blocking receive.

    A mailbox is its own receive waitable: ``message = yield mailbox``
    (``recv()`` returns the mailbox itself, for readability at call
    sites)."""

    __slots__ = ("sim", "name", "_queue", "_waiters")

    def __init__(self, sim, name: str = "mailbox") -> None:
        self.sim = sim
        self.name = name
        self._queue: Deque[Any] = deque()
        self._waiters: Deque[Any] = deque()

    # ------------------------------------------------------------------

    def deliver(self, message: Any) -> None:
        """Make ``message`` available now (called by the network model).

        If a process is blocked in :meth:`recv`, it is resumed immediately;
        otherwise the message queues until someone asks for it.
        """
        if self._waiters:
            sim = self.sim
            sim._seq += 1
            heappush(sim._heap, (sim.now, sim._seq,
                                 self._waiters.popleft()._resume, message))
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
        else:
            self._waiters.append(process)

    def poll(self) -> Optional[Any]:
        """Non-blocking receive: pop the next queued message, or ``None``.

        Used by servers that front their mailbox with an admission queue
        (S21): drain everything that has already arrived, hand it to the
        scheduler, then fall back to a blocking :meth:`recv` only when
        nothing is pending."""
        queue = self._queue
        return queue.popleft() if queue else None

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of queued (undelivered-to-receiver) messages."""
        return len(self._queue)

    @property
    def has_waiters(self) -> bool:
        """True if at least one process is blocked waiting to receive."""
        return bool(self._waiters)

    def peek(self) -> Optional[Any]:
        """The next queued message without consuming it, or ``None``."""
        return self._queue[0] if self._queue else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Mailbox({self.name!r}, queued={len(self._queue)})"
