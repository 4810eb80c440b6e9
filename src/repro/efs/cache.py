"""The EFS block cache with full-track buffering.

Section 4.3: "A cache of recently-accessed blocks makes sequential access
more efficient by keeping neighboring blocks (and their pointers) in
memory", and section 5 attributes the better-than-disk-latency read time
to "full-track buffering in our version of EFS".

Model: an LRU of blocks.  A read miss pays one device access and pulls
the *whole physical track* into the cache (a track is ``track_blocks``
consecutive addresses) — reading the rest of the track costs no extra
positioning once the head is there.  Metadata updates may be written back
lazily (``write_back``); dirty blocks are flushed to the device before
eviction, so the on-disk image is always reconstructible.

An entry keeps the raw block and, beside it, what its reader decoded from
it ("and their pointers"), so a block is parsed at most once while it
stays cached.  Only two paths touch the device and are generators: the
miss (:meth:`BlockCache.fill`) and the write-back of a dirty LRU victim.
A hit (:meth:`BlockCache.lookup`) and an install over a clean victim are
plain calls; the public generator methods compose these.  The miss and
:meth:`BlockCache.write_through` yield their
:class:`~repro.storage.base.BlockRequest` themselves, one frame nearer
the device than ``disk.read`` / ``disk.write`` would put them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from repro.obs.metrics import Counter
from repro.sim import Timeout
from repro.storage.base import BlockRequest


class CacheEntry:
    """One cached block.  ``raw`` never changes in place — every install
    makes a new entry — so ``decoded``, the memo of whoever knows the
    block's format (filled on first use, or seeded by the writer that
    just packed ``raw``), needs no invalidation of its own.

    No ``__init__``: ``BlockCache._install`` is the one place entries are
    made, half a million times a run, and sets the three slots itself."""

    __slots__ = ("raw", "dirty", "decoded")


class BlockCache:
    """Write-back LRU block cache in front of one simulated disk."""

    def __init__(
        self,
        disk,
        capacity: int = 64,
        track_blocks: int = 4,
        hit_cpu: float = 0.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if track_blocks < 1:
            raise ValueError("track size must be >= 1")
        self.disk = disk
        self.capacity = capacity
        self.track_blocks = track_blocks
        #: What a process yields after a :meth:`lookup` hit (``None``: free).
        self.hit_charge = Timeout(hit_cpu) if hit_cpu else None
        self._entries: "OrderedDict[int, CacheEntry]" = OrderedDict()
        # obs-instrument counters behind int properties: same public API,
        # adoptable into a MetricsRegistry (see bind_metrics).  The per-block
        # paths bump ``.value`` directly: ``inc()`` is one more frame a link.
        self._hits = Counter()
        self._misses = Counter()
        self._evictions = Counter()
        self._writebacks = Counter()

    # ------------------------------------------------------------------
    # Block access: a plain call on a hit, a generator only for the device
    # ------------------------------------------------------------------

    def lookup(self, address: int) -> Optional[CacheEntry]:
        """The cached entry, counted as a hit and made most recent — or
        ``None``, and the caller runs :meth:`fill`.  The caller of a hit
        owes ``yield cache.hit_charge`` (when it is not ``None``);
        :meth:`fetch` is the three put together."""
        entry = self._entries.get(address)
        if entry is not None:
            self._hits.value += 1
            self._entries.move_to_end(address)
        return entry

    def fill(self, address: int, prefetch: bool = True):
        """The miss: read the block from the device and (with ``prefetch``)
        install the rest of its physical track for free — the track
        buffer.  Returns the block's new entry."""
        self._misses.value += 1
        request = BlockRequest(self.disk, "read", address, None)
        yield request
        raw = request.outcome()
        install = self._install
        entry = install(address, raw, False) or (
            yield from self._install_behind_write_back(address, raw, False)
        )
        if prefetch and self.track_blocks > 1:
            entries, blocks = self._entries, self.disk.blocks
            track_start = (address // self.track_blocks) * self.track_blocks
            for sibling in range(track_start, track_start + self.track_blocks):
                if sibling == address or sibling in entries:
                    continue
                raw = blocks.get(sibling)
                if raw is not None and install(sibling, raw, False) is None:
                    yield from self._install_behind_write_back(sibling, raw, False)
        return entry

    def fetch(self, address: int, prefetch: bool = True):
        """One block's entry through the cache, hit charge included:
        :meth:`lookup`, else :meth:`fill`."""
        entry = self.lookup(address)
        if entry is None:
            entry = yield from self.fill(address, prefetch)
        elif self.hit_charge is not None:
            yield self.hit_charge
        return entry

    def read(self, address: int, prefetch: bool = True):
        """Read one block through the cache; returns the raw 1024-byte
        block."""
        return (yield from self.fetch(address, prefetch)).raw

    def write_through(self, address: int, data: bytes, decoded: Any = None):
        """Write to the device now and cache the result clean.  ``decoded``
        seeds the entry's memo with what ``data`` was packed from."""
        request = BlockRequest(self.disk, "write", address, data)
        yield request
        request.outcome()
        if self._install(address, data, False, decoded) is None:
            yield from self._install_behind_write_back(address, data, False, decoded)

    def write_back(self, address: int, data: bytes, decoded: Any = None):
        """Update the cached copy only; the device is written on eviction
        or :meth:`flush`.  Used for the hot head-block pointer updates
        (the 'EFS peculiarity' that keeps appends at two device writes).

        Installs at once and returns what the caller yields from:
        nothing (an empty tuple), or the write of the dirty LRU victim
        that must make room first."""
        if self._install(address, data, True, decoded) is not None:
            return ()
        return self._install_behind_write_back(address, data, True, decoded)

    def flush(self):
        """Write every dirty block to the device (in address order)."""
        dirty = [(a, entry) for a, entry in self._entries.items() if entry.dirty]
        for address, entry in sorted(dirty, key=lambda pair: pair[0]):
            yield from self._write_back(address, entry)

    # ------------------------------------------------------------------
    # Synchronous helpers
    # ------------------------------------------------------------------

    def peek(self, address: int) -> Optional[bytes]:
        """Cached contents without I/O, LRU effects, or miss accounting."""
        entry = self._entries.get(address)
        return entry.raw if entry is not None else None

    def invalidate(self, address: int) -> None:
        """Drop a cached block (freed blocks must not linger)."""
        self._entries.pop(address, None)

    def invalidate_all(self) -> None:
        self._entries.clear()

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def bind_metrics(self, registry, prefix: str = "efs.cache") -> None:
        """Adopt this cache's live counters into a MetricsRegistry."""
        registry.adopt(f"{prefix}.hit", self._hits)
        registry.adopt(f"{prefix}.miss", self._misses)
        registry.adopt(f"{prefix}.eviction", self._evictions)
        registry.adopt(f"{prefix}.writeback", self._writebacks)

    # ------------------------------------------------------------------

    def _install(
        self, address: int, raw: bytes, dirty: bool, decoded: Any = None
    ) -> Optional[CacheEntry]:
        """Cache ``raw`` at ``address`` without touching the device;
        returns the new entry.

        ``None``, with nothing changed, when room must first be made by
        writing a dirty LRU victim back: that is
        :meth:`_install_behind_write_back`, which calls this again."""
        entries = self._entries
        old = entries.get(address)
        if old is not None:
            # Dirty is sticky: a block with an unflushed write-back stays
            # dirty even when re-installed "clean" (e.g. by write_through,
            # which has already put *its* data on the device but must not
            # cancel the pending flush of the cached state).
            dirty = dirty or old.dirty
            entries.move_to_end(address)
        else:
            while len(entries) >= self.capacity:
                victim, evicted = entries.popitem(False)
                if evicted.dirty:
                    # Put it back in place: the write-back comes first.
                    entries[victim] = evicted
                    entries.move_to_end(victim, False)
                    return None
                self._evictions.value += 1
        entry = entries[address] = CacheEntry()
        entry.raw = raw
        entry.dirty = dirty
        entry.decoded = decoded
        return entry

    def _install_behind_write_back(
        self, address: int, raw: bytes, dirty: bool, decoded: Any = None
    ):
        """The install that found a dirty LRU victim.  The victim stays
        cached until its write has succeeded — a failed device must not
        cost the only copy — and is then evicted, clean, by ``_install``."""
        entry = None
        while entry is None:
            victim = next(iter(self._entries))
            yield from self._write_back(victim, self._entries[victim])
            entry = self._install(address, raw, dirty, decoded)
        return entry

    def _write_back(self, address: int, entry: CacheEntry):
        yield from self.disk.write(address, entry.raw)
        entry.dirty = False
        self._writebacks.inc()
