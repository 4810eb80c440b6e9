"""A FIFO lock for simulated mutual exclusion.

:class:`repro.redundancy.parity.ParityFile` serializes its
read-modify-write stripe updates on one.  Devices need no lock: each
driver's serving loop is its own queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque


class Lock:
    """Mutual exclusion with FIFO granting.

    Usage::

        yield lock.acquire()
        try:
            yield Timeout(latency)
        finally:
            lock.release()
    """

    __slots__ = ("name", "held", "_waiters")

    def __init__(self, name: str = "lock") -> None:
        self.name = name
        self.held = False
        self._waiters: Deque = deque()

    def acquire(self) -> "_Acquire":
        """Waitable that completes when the lock is granted to the caller."""
        return _Acquire(self)

    def release(self) -> None:
        """Hand the lock to the longest-waiting process, or free it."""
        if not self.held:
            raise RuntimeError(f"release of non-acquired lock {self.name!r}")
        if self._waiters:
            process = self._waiters.popleft()
            process.sim._schedule(0.0, process._resume, None)
        else:
            self.held = False


class _Acquire:
    """Waitable produced by :meth:`Lock.acquire`."""

    __slots__ = ("lock",)

    def __init__(self, lock: Lock) -> None:
        self.lock = lock

    def _wait(self, process) -> None:
        lock = self.lock
        if lock.held:
            lock._waiters.append(process)
        else:
            lock.held = True
            process.sim._schedule(0.0, process._resume, None)
