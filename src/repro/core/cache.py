"""The Bridge Server's block cache (S18).

The paper's naive view pays one synchronous Bridge->LFS round trip per
block, which is why Table 2's sequential reads trail the parallel-open
and tool views even though all p disks sit idle between requests.  Later
parallel file systems closed this gap with *server-side* caching and
streaming (PVFS services noncontiguous requests ahead of the client;
ViPIOS overlaps disk access with transfer).  This module is the cache
half of that remedy: an LRU of recently-read (and read-ahead) blocks,
keyed by ``(file name, global block number)``, held by the Bridge Server
itself so repeat and prefetched reads are served without an EFS round
trip.

Coherence protocol (write-through invalidation):

* every write routed through the Bridge Server (``seq_write`` /
  ``random_write`` / ``list_write``) invalidates the written blocks and
  bumps the file's *generation* counter **before** the EFS write is
  issued, so a concurrently in-flight read or prefetch of the old value
  can never install stale data afterwards (installs are guarded by the
  generation captured at issue time);
* Delete and Create drop every cached block of the name;
* tool-view traffic goes straight to the LFS instances by design (the
  paper's explicit coherence trade), so it is outside the cache's
  domain — exactly as it is outside the Bridge directory's size
  bookkeeping.  Parity files do *both* their reads and writes
  tool-style, so they never observe the Bridge cache at all.

Cached payloads are always the 960-byte data areas exactly as an EFS
read returns them, so a cache hit is byte-identical to the uncached
system by construction.

Beside the data the cache remembers *where blocks live*: the disk
address in every EFS result that crosses the server, per file, handed
back as the hint of the next in-place write to that block (section 4.3:
a correct hint is served without a search).  See :meth:`remember`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.obs.metrics import Counter


class BridgeBlockCache:
    """LRU block cache keyed by ``(file name, global block number)``.

    Purely synchronous (the Bridge Server charges its own CPU cost for
    hits); all I/O stays in the server/prefetcher.  Counters distinguish
    demand-installed from prefetched entries so
    :meth:`~repro.core.server.BridgeServer.bridge_cache_stats` and
    ``benchmarks/bench_ablation_prefetch.py`` can price read-ahead waste:
    a prefetched block that is evicted, invalidated, or dropped stale
    before any read uses it counts as ``prefetch_wasted``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("bridge cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, int], Tuple[bytes, bool]]" = (
            OrderedDict()
        )
        self._generations: Dict[str, int] = {}
        #: name -> {global block: disk address on the block's LFS}.
        self._addresses: Dict[str, Dict[int, int]] = {}
        # Counters are repro.obs instruments behind int-returning
        # properties, so the pre-S19 integer-attribute API is unchanged
        # while a MetricsRegistry can adopt the live objects.
        self._hits = Counter()
        self._misses = Counter()
        self._installs = Counter()
        self._evictions = Counter()
        self._invalidations = Counter()
        self._prefetch_installs = Counter()
        self._prefetch_used = Counter()
        self._prefetch_wasted = Counter()

    # ------------------------------------------------------------------
    # Lookup / install
    # ------------------------------------------------------------------

    def lookup(self, name: str, block: int) -> Optional[bytes]:
        """The cached data area for a global block, or ``None`` (counted)."""
        key = (name, block)
        entry = self._entries.get(key)
        if entry is None:
            self._misses.inc()
            return None
        self._hits.inc()
        data, prefetched = entry
        if prefetched:
            self._prefetch_used.inc()
            self._entries[key] = (data, False)
        self._entries.move_to_end(key)
        return data

    def contains(self, name: str, block: int) -> bool:
        """Presence probe with no LRU effect and no hit/miss accounting."""
        return (name, block) in self._entries

    def peek(self, name: str, block: int) -> Optional[bytes]:
        """Like :meth:`lookup` but without hit/miss accounting.

        Used by the detached demand path to re-check the cache after its
        miss was already counted synchronously — each client read counts
        exactly one hit or one miss.
        """
        key = (name, block)
        entry = self._entries.get(key)
        if entry is None:
            return None
        data, prefetched = entry
        if prefetched:
            self._prefetch_used.inc()
            self._entries[key] = (data, False)
        self._entries.move_to_end(key)
        return data

    def mark_used(self, name: str, block: int) -> None:
        """Clear a block's prefetched flag after a demand read consumed
        the in-flight fetch's result directly (a used prefetch even if
        the block is later evicted untouched)."""
        key = (name, block)
        entry = self._entries.get(key)
        if entry is not None and entry[1]:
            self._prefetch_used.inc()
            self._entries[key] = (entry[0], False)
            self._entries.move_to_end(key)

    def install(self, name: str, block: int, data: bytes,
                prefetched: bool = False) -> None:
        """Insert (or refresh) one block, evicting LRU entries as needed."""
        key = (name, block)
        stale = self._entries.pop(key, None)
        if stale is not None and stale[1]:
            self._prefetch_wasted.inc()  # re-fetched before anyone used it
        while len(self._entries) >= self.capacity:
            _victim, (_data, was_prefetched) = self._entries.popitem(last=False)
            self._evictions.inc()
            if was_prefetched:
                self._prefetch_wasted.inc()
        self._entries[key] = (data, prefetched)
        self._installs.inc()
        if prefetched:
            self._prefetch_installs.inc()

    # ------------------------------------------------------------------
    # Invalidation (the write-through protocol) and generations
    # ------------------------------------------------------------------

    def generation(self, name: str) -> int:
        """The file's write generation; bumped by every invalidation.

        Asynchronous readers capture the generation when they *issue* an
        EFS read and install the result only if it is unchanged, which
        makes install-after-invalidate races harmless.
        """
        return self._generations.get(name, 0)

    def bump_generation(self, name: str) -> None:
        self._generations[name] = self._generations.get(name, 0) + 1

    def invalidate_block(self, name: str, block: int) -> None:
        """Drop one block and bump the file's generation."""
        self.bump_generation(name)
        entry = self._entries.pop((name, block), None)
        if entry is not None:
            self._invalidations.inc()
            if entry[1]:
                self._prefetch_wasted.inc()

    def invalidate_file(self, name: str) -> None:
        """Drop every cached block of ``name``, forget where its blocks
        live, and bump its generation."""
        self.bump_generation(name)
        self._addresses.pop(name, None)
        victims = [key for key in self._entries if key[0] == name]
        for key in victims:
            _data, prefetched = self._entries.pop(key)
            self._invalidations.inc()
            if prefetched:
                self._prefetch_wasted.inc()

    # ------------------------------------------------------------------
    # Block addresses (the write hint)
    # ------------------------------------------------------------------

    def remember(self, name: str, block: int, addr: int) -> None:
        """Record where an EFS result said a global block lives.

        Unlike the data, the address outlives :meth:`invalidate_block`:
        an in-place write never moves a block, and EFS frees blocks only
        on delete, which reaches :meth:`invalidate_file`.  EFS serves a
        hint only from an allocated block whose header names the file
        and block asked for, so an entry that is wrong anyway (a freed
        block keeps its old header on ``hostfs``) costs one fetch, never
        a wrong block.
        """
        self._addresses.setdefault(name, {})[block] = addr

    def address_of(self, name: str, block: int) -> Optional[int]:
        """The remembered disk address of a global block, or ``None``."""
        table = self._addresses.get(name)
        return None if table is None else table.get(block)

    # ------------------------------------------------------------------
    # Counter facade + metrics registration (S19)
    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def installs(self) -> int:
        return self._installs.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def invalidations(self) -> int:
        return self._invalidations.value

    @property
    def prefetch_installs(self) -> int:
        return self._prefetch_installs.value

    @property
    def prefetch_used(self) -> int:
        return self._prefetch_used.value

    @property
    def prefetch_wasted(self) -> int:
        return self._prefetch_wasted.value

    def bind_metrics(self, registry, prefix: str = "bridge.cache") -> None:
        """Adopt this cache's live counters into a MetricsRegistry."""
        registry.adopt(f"{prefix}.hit", self._hits)
        registry.adopt(f"{prefix}.miss", self._misses)
        registry.adopt(f"{prefix}.install", self._installs)
        registry.adopt(f"{prefix}.eviction", self._evictions)
        registry.adopt(f"{prefix}.invalidation", self._invalidations)
        registry.adopt(f"{prefix}.prefetch_install", self._prefetch_installs)
        registry.adopt(f"{prefix}.prefetch_used", self._prefetch_used)
        registry.adopt(f"{prefix}.prefetch_wasted", self._prefetch_wasted)

    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BridgeBlockCache({len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
