"""Sequential-stream detection and striped read-ahead for the Bridge
Server (S18).

The naive view's hot loop is strictly serial: the client asks for one
block, the Bridge forwards one EFS request, one disk works while the
other ``p - 1`` sit idle.  Once the :class:`SequentialDetector`
recognizes a stream, the :class:`Prefetcher` issues *asynchronous* EFS
reads for the next ``window * p`` blocks — one outstanding block per
constituent per window step — and installs the results into the Bridge
block cache (:mod:`repro.core.cache`).  The client's next requests then
hit the cache, so the observed latency collapses to the Bridge
round-trip while all ``p`` disks stream in parallel underneath: the
classic server-side read-ahead pipeline of PVFS/ViPIOS applied to the
paper's architecture.

Correctness guards:

* at most one in-flight fetch per ``(name, block)``; a demand read that
  misses the cache but finds an in-flight fetch *waits on it* instead of
  issuing a duplicate EFS read;
* every fetch captures the file's cache generation when issued and drops
  its result (waking waiters with ``None`` so they re-read) if a write
  invalidated the file meanwhile — prefetched data can never resurrect
  overwritten bytes;
* fetch errors (e.g. a failed device) are swallowed by the prefetch
  process — read-ahead is a hint, and the demand path re-raises the real
  error in the caller's context.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple

from repro.sim import Signal


class SequentialDetector:
    """Per-file access-pattern tracker for the naive read path.

    ``observe`` records one read and returns ``True`` once the stream
    has produced ``threshold`` consecutive block numbers (2: a stream
    is recognized on its second block).  A non-consecutive access
    resets the run — random traffic never triggers read-ahead.
    """

    threshold = 2

    def __init__(self) -> None:
        self._streams: Dict[str, Tuple[int, int]] = {}  # name -> (last, run)
        self.recognitions = 0

    def observe(self, name: str, block: int) -> bool:
        last_run = self._streams.get(name)
        if last_run is not None and block == last_run[0] + 1:
            run = last_run[1] + 1
        else:
            run = 1
        self._streams[name] = (block, run)
        if run == self.threshold:
            self.recognitions += 1
        return run >= self.threshold

    def forget(self, name: str) -> None:
        self._streams.pop(name, None)


class Prefetcher:
    """Asynchronous striped read-ahead feeding the Bridge block cache.

    Owned by a :class:`~repro.core.server.BridgeServer`; ``window`` is
    the read-ahead depth in *stripes* (window 1 keeps one block per
    constituent in flight for a width-p file, the default the paper's
    geometry suggests).
    """

    def __init__(self, server, cache, window: int) -> None:
        if window < 1:
            raise ValueError("prefetch window must be >= 1")
        self.server = server
        self.cache = cache
        self.window = window
        self.detector = SequentialDetector()
        self._inflight: Dict[Tuple[str, int], Signal] = {}
        # Per-(name, slot) fetch queues: each constituent's prefetches
        # run *serially* so every EFS request carries a fresh disk-address
        # hint (concurrent requests to one LFS would race the hint and
        # force expensive link walks); the p slots still run in parallel.
        self._queues: Dict[Tuple[str, int], Deque] = {}
        self._busy: Set[Tuple[str, int]] = set()
        self.issued = 0
        self.completed = 0
        self.stale_drops = 0
        self.error_drops = 0

    # ------------------------------------------------------------------
    # Server-facing API
    # ------------------------------------------------------------------

    def observe(self, entry, name: str, block: int) -> None:
        """Record a naive-view read; top up the pipeline on a stream."""
        if self.detector.observe(name, block):
            self.top_up(entry, name, block + 1)

    def top_up(self, entry, name: str, start: int,
               depth: Optional[int] = None) -> None:
        """Issue fetches for ``[start, start + depth)`` not already
        cached or in flight (``depth`` defaults to ``window * width``)."""
        if depth is None:
            depth = self.window * entry.width
        end = min(start + depth, entry.total_blocks)
        for block in range(max(start, 0), end):
            if self.cache.contains(name, block):
                continue
            if (name, block) in self._inflight:
                continue
            self._issue(entry, name, block)

    def inflight_signal(self, name: str, block: int) -> Optional[Signal]:
        """The in-flight fetch for a block, if any (demand reads wait on
        it rather than duplicating the EFS request).  Fires with the
        block's data, or ``None`` if the fetch was dropped."""
        return self._inflight.get((name, block))

    def forget(self, name: str) -> None:
        self.detector.forget(name)

    # ------------------------------------------------------------------

    def _issue(self, entry, name: str, block: int) -> None:
        node = self.server.node
        sim = node.machine.sim
        signal = Signal(sim)
        self._inflight[(name, block)] = signal
        generation = self.cache.generation(name)
        self.issued += 1
        span = None
        if sim.obs is not None:
            # The fetch span parents under the demand op that triggered
            # the read-ahead, but is background: it appears in exports as
            # a prefetch child without polluting the op's latency
            # partition (it overlaps and outlives the demand path).
            span = sim.obs.begin(
                f"prefetch[{block}]", "server", node=node.index,
                background=True,
            )
            sim.obs.metrics.counter(f"{self.server.name}.prefetch.issued").inc()
        slot, local = entry.locate_block(block)
        key = (name, slot)
        queue = self._queues.setdefault(key, deque())
        queue.append((entry, block, local, signal, generation, span))
        if key not in self._busy:
            self._busy.add(key)
            node.spawn(
                self._slot_worker(key),
                name=f"{self.server.name}.prefetch[{slot}]",
            )

    def _slot_worker(self, key: Tuple[str, int]):
        """Drain one constituent's fetch queue, one EFS read at a time."""
        name, slot = key
        server = self.server
        obs = server.node.machine.sim.obs
        queue = self._queues[key]
        while queue:
            entry, block, local, signal, generation, span = queue.popleft()
            if obs is not None:
                # Route this worker's causality (the gather legs, EFS
                # server work, disk access) under the fetch span.
                obs.set_current(span)
            try:
                results = yield from server.fanout(
                    [server.read_call(entry, name, slot, local)]
                )
                result = results[0]
            except Exception:
                # Read-ahead is advisory: swallow the error, let the
                # demand path surface it with proper context if the
                # block is actually read.
                self.error_drops += 1
                self._inflight.pop((name, block), None)
                if obs is not None:
                    obs.end(span, outcome="error")
                signal.fire(None)
                continue
            self._inflight.pop((name, block), None)
            self.completed += 1
            if self.cache.generation(name) != generation:
                self.stale_drops += 1  # a write landed while we read
                if obs is not None:
                    obs.end(span, outcome="stale")
                signal.fire(None)
                continue
            server._landed(entry, name, slot, block, result)
            self.cache.install(name, block, result.data, prefetched=True)
            if obs is not None:
                obs.end(span, outcome="installed")
            signal.fire(result.data)
        if obs is not None:
            obs.set_current(None)
        self._queues.pop(key, None)
        self._busy.discard(key)

    # ------------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Fetches whose results were discarded (stale or errored)."""
        return self.stale_drops + self.error_drops

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Prefetcher(window={self.window}, issued={self.issued}, "
            f"inflight={len(self._inflight)})"
        )
