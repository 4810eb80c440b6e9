"""The discrete-event simulation core.

:class:`Simulator` owns the virtual clock and a two-tier event list.
Simulated activities are generator-based :class:`Process` objects (see
:mod:`repro.sim.process`); the simulator advances time by running the
earliest scheduled callback.

Events run in ``(time, seq)`` order, ``seq`` being the order they were
scheduled in.  About half of a wide run's events are due at the instant
already running (a mailbox delivery, a spawn, a zero delay), so those go
on ``_ready``, a FIFO of ``(fn, arg)``; only later instants pay for the
heap ``_heap`` of ``(time, seq, fn, arg)``.  An event is due now when
``now + delay == now``: a zero delay, or one the clock's float absorbs.
So every heap entry for an instant was scheduled before the clock
reached it, before every ready entry for that instant: the run loop
runs an instant's heap entries first, then its ready queue, then moves
the clock, which replays ``(time, seq)`` exactly.

The kernel is deliberately small and allocation-light: one tuple per
scheduled resume, ``__slots__`` on all hot classes, and no per-event
object beyond it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Dict, List, Tuple

from repro.errors import DeadlockError
from repro.sim.process import Process
from repro.sim.rand import RandomStreams


class Simulator:
    """A discrete-event simulator with a floating-point clock (seconds).

    Parameters
    ----------
    seed:
        Seed for the simulator's deterministic named random streams
        (see :class:`repro.sim.rand.RandomStreams`).
    obs:
        Optional :class:`repro.obs.Observability` (S19).  When ``None``
        (the default) observability is disabled; instrumented layers
        guard every touch point with ``if sim.obs is not None``, and an
        attached instance records synchronously — the simulation event
        sequence is identical either way.
    """

    def __init__(self, seed: int = 0, obs=None) -> None:
        self.now: float = 0.0
        self.obs = obs
        if obs is not None:
            obs.attach(self)
        self.random = RandomStreams(seed)
        # ``_ready``: what was scheduled for the instant it was scheduled
        # at; ``_heap``: everything due later than that.
        self._heap: List[Tuple[float, int, Callable, Any]] = []
        self._ready: Deque[Tuple[Callable, Any]] = deque()
        self._seq = 0
        # Live processes only, in spawn order; a process leaves at exit
        # (an open-loop run spawns one per arrival, forever).
        self._processes: Dict[Process, None] = {}
        self._events_executed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _schedule(self, delay: float, fn: Callable, arg: Any = None) -> None:
        """Schedule ``fn(arg)`` to run ``delay`` seconds from now."""
        now = self.now
        time = now + delay
        if time == now:
            self._ready.append((fn, arg))
        else:
            self._seq += 1
            heappush(self._heap, (time, self._seq, fn, arg))

    def call_later(self, delay: float, fn: Callable, arg: Any = None) -> None:
        """Schedule ``fn(arg)`` after ``delay`` seconds of simulated time."""
        if not delay >= 0:  # also refuses NaN
            raise ValueError(f"negative delay: {delay}")
        self._schedule(delay, fn, arg)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def spawn(self, generator, name: str = "process", daemon: bool = False) -> Process:
        """Create a process from a generator and schedule its first step.

        Daemon processes (servers that loop forever on a mailbox) are
        excluded from deadlock detection and need not finish for
        :meth:`run` to succeed.
        """
        process = Process(self, generator, name=name, daemon=daemon)
        if self.obs is not None:
            # spawn() runs synchronously inside the spawner's step, so the
            # current span is the causal parent of the new process's work
            # (covers Detached handlers and prefetch workers).
            process.obs_ctx = self.obs.current
        self._processes[process] = None
        self._ready.append((process._resume, None))  # due now, inline
        return process

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self) -> float:
        """Run until no event is left; returns the final clock value.

        A drained queue with a non-daemon process still parked is a
        :class:`~repro.errors.DeadlockError`: nothing can ever wake it.
        """
        heap = self._heap
        ready = self._ready
        pop = heappop
        popleft = ready.popleft
        now = self.now
        executed = 0
        # Before an instant's ready queue runs, so do the heap entries
        # for that instant; while it drains, nothing new can join the
        # heap at ``now``, so one check per instant does.  An event is
        # counted before it runs, so one that raises counts too.
        try:
            while True:
                if ready:
                    if heap and heap[0][0] == now:
                        _now, _seq, fn, arg = pop(heap)
                        executed += 1
                        fn(arg)
                        continue
                    while ready:
                        fn, arg = popleft()
                        executed += 1
                        fn(arg)
                if not heap:
                    break
                now, _seq, fn, arg = pop(heap)
                self.now = now
                executed += 1
                fn(arg)
        finally:
            self._events_executed += executed
        blocked = [p for p in self._processes if not p.daemon]
        if blocked:
            raise DeadlockError(blocked)
        return now

    def run_process(self, generator, name: str = "main") -> Any:
        """Spawn ``generator``, run until the queue drains, and return
        the process's result."""
        process = self.spawn(generator, name=name)
        self.run()
        return process.result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far (monotone counter)."""
        return self._events_executed

    def live_processes(self) -> List[Process]:
        """All spawned processes that have not yet terminated."""
        return list(self._processes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        pending = len(self._heap) + len(self._ready)
        return (
            f"Simulator(now={self.now:.6f}, pending={pending}, "
            f"processes={len(self._processes)})"
        )
