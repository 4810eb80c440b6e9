"""Generator-based simulated processes.

A process body is a plain Python generator function.  Each ``yield`` hands
the kernel a *waitable* (:class:`~repro.sim.events.Timeout`, a
:class:`~repro.sim.channel.Mailbox` to receive from, a resource acquire,
another process's completion signal, ...); the process resumes when the
waitable completes, with the waitable's value as the result of the
``yield`` expression.  The waitables behind most yields — exactly
``Timeout`` and ``Mailbox`` — are dispatched inline by :meth:`Process._step`
(the same event their ``_wait`` would schedule), and so is a ``ReplyCell``,
which has no ``_wait``; everything else, subclasses included, goes through
its ``_wait``.

Processes that ``return value`` deliver that value to joiners.  A process
that raises an unhandled exception fails the whole simulation immediately
(fail-fast), wrapped in :class:`~repro.errors.ProcessError` — silent loss
of a simulated actor is never acceptable in an experiment.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any

from repro.errors import InvalidYieldError, ProcessError, SecondReceiverError
from repro.sim.channel import Mailbox, ReplyCell
from repro.sim.events import AllOf, Signal, Timeout


class Process:
    """A running simulated process.  Created via :meth:`Simulator.spawn`."""

    __slots__ = (
        "sim", "gen", "name", "daemon", "done", "result", "_completion",
        "obs_ctx", "_resume", "_send",
    )

    def __init__(self, sim, gen, name: str = "process", daemon: bool = False) -> None:
        try:
            self._send = gen.send  # bound once, not once per step
        except AttributeError:
            raise TypeError(
                f"process body must be a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            ) from None
        self.sim = sim
        self.gen = gen
        self.name = name
        self.daemon = daemon
        self.done = False
        self.result: Any = None
        # Made by the first join(): most processes (a detached handler,
        # an open-loop arrival) are never joined.
        self._completion = None
        # Observability span context (S19): the span this process's work
        # belongs to.  Restored into sim.obs.current at every step so the
        # "current span" survives interleaved process execution.
        self.obs_ctx = None
        # Cached bound method so waitables can schedule a resume without
        # allocating a fresh bound-method object per event (S21 hot path:
        # an open-loop traffic run schedules hundreds of thousands).
        self._resume = self._step

    # ------------------------------------------------------------------

    def _step(self, value: Any) -> None:
        """Advance the generator by one yield.  Called by the kernel only."""
        sim = self.sim
        obs = sim.obs
        if obs is not None:
            obs.current = self.obs_ctx
            obs.current_process = self
        try:
            target = self._send(value)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None))
            return
        except Exception as exc:
            # An ended process, though not done: it leaves the live set
            # (a caller may catch the error and run on), and whoever
            # joins it stays parked.
            self._resume = None
            del sim._processes[self]
            if isinstance(exc, ProcessError):
                raise
            raise ProcessError(self.name, str(exc)) from exc
        # Inline dispatch by exact class: the event is the one
        # Timeout._wait / Mailbox._wait would schedule, minus two frames.
        kind = target.__class__
        if kind is Timeout:
            now = sim.now
            time = now + target.delay
            if time == now:
                sim._ready.append((self._resume, None))
            else:
                sim._seq += 1
                heappush(sim._heap, (time, sim._seq, self._resume, None))
            return
        if kind is Mailbox:
            queue = target._queue
            if queue:
                sim._ready.append((self._resume, queue.popleft()))
            elif target._waiter is None:
                target._waiter = self
            else:
                raise SecondReceiverError(target, self)
            return
        if kind is ReplyCell:
            reply = target.value
            if reply is None:
                target.waiter = self
            else:
                sim._ready.append((self._resume, reply))
            return
        try:
            wait = target._wait
        except AttributeError:
            raise InvalidYieldError(
                f"process {self.name!r} yielded non-waitable {target!r}"
            ) from None
        wait(self)

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        # Nothing resumes a finished process; dropping the bound method
        # breaks the process -> _resume -> process cycle, so refcounting
        # frees it (one per detached request or open-loop arrival)
        # without waiting for the cyclic collector.
        self._resume = None
        del self.sim._processes[self]
        if self._completion is not None:
            self._completion.fire(result)

    # ------------------------------------------------------------------

    def join(self) -> Signal:
        """Waitable that completes (with the process result) on termination.

        Usage inside another process: ``result = yield worker.join()``.
        """
        completion = self._completion
        if completion is None:
            completion = self._completion = Signal(self.sim)
            if self.done:
                completion.fire(self.result)
        return completion

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


def join_all(processes) -> "Signal":
    """Waitable for the completion of every process in ``processes``.

    Yields a list of their results, in order.  Implemented with
    :class:`~repro.sim.events.AllOf` over the completion signals.
    """
    return AllOf([p.join() for p in processes])
