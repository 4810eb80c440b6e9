"""Waitable primitives for the discrete-event kernel.

A simulated process is a Python generator.  Whatever it ``yield``\\ s must be
a *waitable*: an object with a ``_wait(process)`` method that arranges for
the process to be resumed later.  The kernel resumes the process by calling
``process._step(value)``; ``value`` becomes the result of the ``yield``
expression inside the generator.

The waitables defined here are deliberately small (``__slots__`` everywhere)
because a large simulation allocates millions of them.
"""

from __future__ import annotations

from typing import Any, Iterable, List


class Timeout:
    """Wait for a fixed amount of simulated time.

    ``yield Timeout(0.015)`` suspends the current process for 15 simulated
    milliseconds.  A zero delay is allowed and yields control for one
    scheduling round (useful for fairness).
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if not delay >= 0:  # also refuses NaN
            raise ValueError(f"negative timeout: {delay!r}")
        self.delay = delay

    def _wait(self, process) -> None:
        # Process._step runs this body inline for exact Timeout instances.
        process.sim._schedule(self.delay, process._resume, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay!r})"


class Signal:
    """A one-shot event that any number of processes can wait on.

    ``fire(value)`` wakes every waiter (and all future waiters immediately).
    This is the building block for process join and barrier-style
    coordination in the tools.
    """

    __slots__ = ("sim", "fired", "value", "_waiters")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.fired = False
        self.value: Any = None
        self._waiters: List[Any] = []

    def fire(self, value: Any = None) -> None:
        """Trigger the signal, waking all current waiters with ``value``."""
        if self.fired:
            return
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.sim._schedule(0.0, process._resume, value)

    def _wait(self, process) -> None:
        if self.fired:
            process.sim._schedule(0.0, process._resume, self.value)
        else:
            self._waiters.append(process)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else "pending"
        return f"Signal({state})"


class AllOf:
    """Wait until every waitable in a collection has completed.

    The yielded value is a list with one entry per child, in order.  Only
    :class:`Signal`-like children (things exposing ``fired``/``value`` and
    accepting an internal watcher) are supported; in practice this is used
    to join many processes: ``yield AllOf([p.join() for p in workers])``.
    """

    __slots__ = ("signals", "_remaining", "_process")

    def __init__(self, signals: Iterable[Signal]) -> None:
        self.signals = list(signals)
        self._remaining = 0
        self._process = None

    def _wait(self, process) -> None:
        self._process = process
        pending = [s for s in self.signals if not s.fired]
        self._remaining = len(pending)
        if not self._remaining:
            process.sim._schedule(0.0, process._resume, self._values())
            return
        for signal in pending:
            signal._waiters.append(_AllOfWatcher(self))

    def _child_done(self) -> None:
        self._remaining -= 1
        if not self._remaining:
            process = self._process
            process.sim._schedule(0.0, process._resume, self._values())

    def _values(self) -> List[Any]:
        return [s.value for s in self.signals]


class _AllOfWatcher:
    """Adapter so an :class:`AllOf` can sit in a signal's waiter list."""

    __slots__ = ("allof",)

    def __init__(self, allof: AllOf) -> None:
        self.allof = allof

    def _step(self, _value: Any) -> None:
        self.allof._child_done()

    # Watchers sit in signal waiter lists next to real processes, which
    # resume through their cached ``_resume`` binding.
    _resume = _step
