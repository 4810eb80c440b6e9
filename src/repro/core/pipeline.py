"""S20: the staged Bridge request pipeline.

Every Bridge Server operation used to hand-roll the same sequence —
resolve the name, consult the S18 cache, forward to the right LFS
instances, gather, thread disk-address hints back.  This module makes
those stages explicit; the ``op_*`` handlers in
:mod:`repro.core.server` are thin declarative compositions of them.

The stages, in request order:

1. **admission & resolution** — :meth:`RequestPipeline.admit` charges
   the server CPU (``bridge_request``, plus the directory probe for
   monitor operations); :meth:`resolve` consults the Bridge directory;
   :meth:`commit` charges the directory-update cost after a mutation.
2. **cache** — :meth:`probe` is the synchronous Bridge-cache lookup
   (with S18 stream observation); :meth:`invalidate` is the
   invalidate-before-issue write guard; :meth:`demand_read` is the
   detached fill path with its generation-guarded install.
3. **fan-out/gather** — every EFS message leaves through
   :meth:`fanout`, windowed by ``config.bridge_fanout_limit``;
   :meth:`spawn_staged` (sequential initiation, overlapped completion —
   the paper's section 4.5 create) and :meth:`spawn_tree` (relay-tree
   broadcast) are the two non-gather spawn shapes.
4. **prefetch feedback** — :meth:`feedback` threads next-block disk
   addresses from completed transfers into the hint table and
   :meth:`learn` remembers each block's own address for the next
   in-place write; the read-ahead top-up and inflight-wait coupling
   live on the demand and parallel delivery paths.

Adding an op handler means composing these stages, not re-implementing
them.  Redundancy (S16) is not a stage: parity and degraded reads are
client-side wrappers in :mod:`repro.redundancy`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import BLOCK_SIZE, DATA_BYTES_PER_BLOCK
from repro.core.directory import BridgeFileEntry
from repro.core.parallel import BlockDelivery, Deposit
from repro.errors import BridgeBadRequestError, BridgeJobError
from repro.machine import Response, gather, gather_settled
from repro.machine.rpc import Detached, Request
from repro.sim import Timeout


class RequestPipeline:
    """The staged request engine of one Bridge Server instance."""

    __slots__ = ("server",)

    def __init__(self, server) -> None:
        self.server = server

    # ------------------------------------------------------------------
    # Stage 1: admission & resolution
    # ------------------------------------------------------------------

    def admit(self, probe: bool = False, batch: int = 0):
        """Charge the per-request server CPU; monitor operations (the
        directory mutators and Open) also pay the directory probe.

        ``batch`` is the name count of an S23 multi-name metadata
        request: the decode (``bridge_request``) and the probe are paid
        *once* — a single sweep of the server's metadata storage fetches
        every requested entry — plus a per-name hash/entry charge
        (``bridge_batch_name``).  That amortization is the whole point
        of the batched surface: a singleton metadata op is dominated by
        the fixed 71 ms decode+probe, so n names in one batch cost a
        fraction of n singleton requests.

        When an S21 admission control is installed it is consulted
        first (a batch is one request: it carries one envelope): a
        token-bucket refusal or a queue-depth shed charges only
        ``bridge_fast_reject`` and raises a typed
        :class:`~repro.errors.BridgeAdmissionError`, which ships back to
        the caller like any application error — the server never does
        directory or EFS work for a refused request."""
        server = self.server
        control = server.admission
        if control is not None:
            yield from control.admit(server, server._active_request)
        cpu = server.config.cpu
        yield Timeout(
            cpu.bridge_request + (cpu.bridge_directory_probe if probe else 0)
            + cpu.bridge_batch_name * batch
        )

    def resolve(self, name: str) -> BridgeFileEntry:
        """Name -> directory entry (raises BridgeFileNotFoundError)."""
        return self.server.directory.lookup(name)

    def commit(self):
        """Charge the directory-update cost after a monitor mutation."""
        yield Timeout(self.server.config.cpu.bridge_directory_update)

    # ------------------------------------------------------------------
    # Stage 2: cache
    # ------------------------------------------------------------------

    def probe(self, name: str, block: Optional[int] = None):
        """Synchronous Bridge-cache lookup ahead of request admission.

        ``block=None`` probes at the sequential cursor (advancing it on
        a hit).  Returns a complete hit :class:`Response` — charged at
        ``bridge_cache_hit`` instead of the full request decode — or
        ``None`` to fall through to the full pipeline.  Misses also feed
        the S18 stream detector (prefetch feedback starts here).
        """
        server = self.server
        if server._cache is None:
            return None
        entry = server.directory.lookup(name)
        sequential = block is None
        target = server._cursors.get(name, 0) if sequential else block
        if 0 <= target < entry.total_blocks:
            if server._prefetcher is not None:
                server._prefetcher.observe(entry, name, target)
            data = server._cache.lookup(name, target)
            if data is not None:
                if sequential:
                    server._cursors[name] = target + 1
                yield Timeout(server.config.cpu.bridge_cache_hit)
                value = (target, data) if sequential else data
                return Response(value=value, size=len(data))
        return None

    def invalidate(self, name: str, *blocks: int) -> None:
        """Invalidate-before-issue: drop cached copies *before* the EFS
        write leaves so an in-flight read of the old value can never
        install stale data later."""
        if self.server._cache is not None:
            for block in blocks:
                self.server._cache.invalidate_block(name, block)

    def evict_file(self, name: str) -> None:
        """Full per-file eviction (create-over-delete, delete)."""
        if self.server._cache is not None:
            self.server._cache.invalidate_file(name)
        if self.server._prefetcher is not None:
            self.server._prefetcher.forget(name)

    def cached_or_inflight(self, name: str, block: int):
        """Cache lookup that also waits on an in-flight prefetch instead
        of duplicating its EFS request (parallel delivery path)."""
        server = self.server
        if server._cache is None:
            return None
        data = server._cache.lookup(name, block)
        if data is None and server._prefetcher is not None:
            signal = server._prefetcher.inflight_signal(name, block)
            if signal is not None:
                data = yield signal
                if data is not None:
                    server._cache.mark_used(name, block)
        return data

    # ------------------------------------------------------------------
    # Stage 3: fan-out / gather
    # ------------------------------------------------------------------

    def fanout(self, calls):
        """Windowed gather: every EFS message the server sends leaves
        through here, at most ``bridge_fanout_limit`` in flight (0 =
        unbounded, the seed default)."""
        results = yield from gather(
            self.server.node, calls,
            max_in_flight=self.server.config.bridge_fanout_limit or None,
        )
        return results

    def fanout_settled(self, calls):
        """Windowed gather whose per-call errors come back as values
        (``(value, error)`` pairs): the S23 batch handlers' fan-out for
        legs that must settle independently — chasing names through a
        migration's forwarding window — where one name's failure is that
        name's outcome, not the batch's."""
        results = yield from gather_settled(
            self.server.node, calls,
            max_in_flight=self.server.config.bridge_fanout_limit or None,
        )
        return results

    def spawn_staged(self, calls):
        """Paper create behavior (section 4.5): initiation and
        termination are sequential, the LFS work itself overlaps."""
        server = self.server
        reply_ports = []
        for port, method, args in calls:
            yield Timeout(server.config.cpu.bridge_create_dispatch)
            reply_port = server.node.port()
            server.node.send(port, Request(method, args, reply_port))
            reply_ports.append(reply_port)
        for reply_port in reply_ports:
            response = yield reply_port.recv()
            if response.error is not None:
                raise response.error

    def spawn_tree(self, entries, relay_method: str):
        """Improved create behavior: one message to the first relay,
        which fans out through an embedded binary tree (O(log p))."""
        yield Timeout(self.server.config.cpu.bridge_create_dispatch)
        results = yield from self.fanout(
            [(entries[0]["relay_port"], "relay",
              {"entries": entries, "relay_method": relay_method}, 0)],
        )
        return results[0]

    def read_call(self, entry: BridgeFileEntry, name: str, slot: int,
                  local: int):
        """One single-block EFS read leg, hint-threaded."""
        server = self.server
        return (server._slot_port(entry, slot), "read",
                {"file_number": entry.efs_file_numbers[slot],
                 "block_number": local,
                 "hint": server._hints.get((name, slot))}, 0)

    def write_call(self, entry: BridgeFileEntry, slot: int, local: int,
                   data: bytes, hint=None):
        """One single-block EFS write leg."""
        return (self.server._slot_port(entry, slot), "write",
                {"file_number": entry.efs_file_numbers[slot],
                 "block_number": local,
                 "data": data,
                 "hint": hint}, BLOCK_SIZE)

    # ------------------------------------------------------------------
    # Composed single-block paths (stages 2+3+4)
    # ------------------------------------------------------------------

    def demand_read(self, entry: BridgeFileEntry, name: str, block: int):
        """The detached half of a naive-view read whose synchronous
        probe missed: re-check the cache (a prefetch may have landed
        meanwhile), wait on an in-flight fetch instead of duplicating
        its EFS request, otherwise read from the source and install the
        result under the generation guard."""
        server = self.server
        if server._cache is None:
            data = yield from self._read_source(entry, name, block)
            return data
        data = server._cache.peek(name, block)
        if data is not None:
            return data
        if server._prefetcher is not None:
            signal = server._prefetcher.inflight_signal(name, block)
            if signal is not None:
                data = yield signal
                if data is not None:
                    server._cache.mark_used(name, block)
                    return data
                # The fetch was dropped (stale or errored): fall through
                # to a direct read so the demand path sees real state.
        generation = server._cache.generation(name)
        data = yield from self._read_source(entry, name, block)
        if server._cache.generation(name) == generation:
            server._cache.install(name, block, data)
        return data

    def _read_source(self, entry: BridgeFileEntry, name: str, block: int):
        """Stage 3: one single-block read, with the hint feedback of
        stage 4."""
        slot, local = entry.locate_block(block)
        results = yield from self.fanout(
            [self.read_call(entry, name, slot, local)]
        )
        self.feedback(name, slot, results[0].next_addr)
        self.learn(entry, block, results[0].addr)
        return results[0].data

    def place(self, entry: BridgeFileEntry, block: int) -> Tuple[int, int]:
        """Block placement: strict interleave, or the section-3
        disordered scatter (any slot will do) on append."""
        if entry.disordered and block == len(entry.block_map):
            rng = self.server.node.machine.sim.random.stream("bridge.disorder")
            slot = rng.randrange(entry.width)
            local = sum(1 for s, _l in entry.block_map if s == slot)
            entry.block_map.append((slot, local))
            return slot, local
        return entry.locate_block(block)

    def commit_write(self, entry: BridgeFileEntry, name: str, block: int,
                     data: bytes):
        """One single-block write; an in-place write carries the
        block's remembered disk address as its EFS hint."""
        slot, local = self.place(entry, block)
        cache = self.server._cache
        hint = cache.address_of(name, block) if cache is not None else None
        results = yield from self.fanout(
            [self.write_call(entry, slot, local, data, hint)]
        )
        self.learn(entry, block, results[0].addr)
        return results[0]

    # ------------------------------------------------------------------
    # Composed batched paths (list I/O)
    # ------------------------------------------------------------------

    def decompose(self, entry: BridgeFileEntry, name: str,
                  blocks: List[int]) -> Dict[int, Dict[int, int]]:
        """Split a global block list per constituent, validating range:
        ``slot -> {local block: global block}``."""
        per_slot: Dict[int, Dict[int, int]] = {}
        for block in blocks:
            if not 0 <= block < entry.total_blocks:
                raise BridgeBadRequestError(
                    f"{name!r}: block {block} outside file of "
                    f"{entry.total_blocks} blocks"
                )
            slot, local = entry.locate_block(block)
            per_slot.setdefault(slot, {})[local] = block
        return per_slot

    def gather_batches(self, entry: BridgeFileEntry, name: str,
                       per_slot: Dict[int, Dict[int, int]]):
        """One batched ``read_blocks`` per touched LFS; returns the
        ``(slot, local) -> data`` map with hints fed back."""
        server = self.server
        slots = sorted(per_slot)
        calls = [
            (server._slot_port(entry, slot), "read_blocks",
             {"file_number": entry.efs_file_numbers[slot],
              "block_numbers": sorted(per_slot[slot]),
              "hint": server._hints.get((name, slot))}, 0)
            for slot in slots
        ]
        batches = yield from self.fanout(calls)
        by_location: Dict[Tuple[int, int], bytes] = {}
        for slot, batch in zip(slots, batches):
            for result in batch.results:
                by_location[(slot, result.block_number)] = result.data
                self.learn(entry, per_slot[slot][result.block_number],
                           result.addr)
            if batch.results:
                self.feedback(name, slot, batch.results[-1].next_addr)
        return by_location

    def validate_list_write(self, entry: BridgeFileEntry, name: str,
                            writes) -> int:
        """File-level no-sparse rule: in-place updates may scatter;
        appended blocks must form a dense run from the current end.
        Returns the file's new total size in blocks."""
        if entry.disordered:
            raise BridgeBadRequestError(
                f"{name!r}: list write is not supported on disordered "
                "files (use the naive view)"
            )
        targets = {block for block, _data in writes}
        new_total = max(entry.total_blocks, max(targets) + 1)
        missing = [
            block for block in range(entry.total_blocks, new_total)
            if block not in targets
        ]
        if missing:
            raise BridgeBadRequestError(
                f"{name!r}: list write appends must be dense; blocks "
                f"{missing[:4]}{'...' if len(missing) > 4 else ''} between "
                f"the current end ({entry.total_blocks}) and "
                f"{new_total - 1} are not covered"
            )
        for block, data in writes:
            if block < 0:
                raise BridgeBadRequestError(
                    f"{name!r}: negative block {block} in list write"
                )
            if len(data) > DATA_BYTES_PER_BLOCK:
                raise BridgeBadRequestError(
                    f"{name!r}: write of {len(data)} bytes exceeds data "
                    f"area {DATA_BYTES_PER_BLOCK}"
                )
        return new_total

    def scatter_batches(self, entry: BridgeFileEntry, name: str, writes):
        """One batched ``write_blocks`` per touched LFS."""
        server = self.server
        interleave = entry.interleave
        per_slot: Dict[int, List[Tuple[int, bytes]]] = {}
        for block, data in writes:
            slot, local = interleave.locate(block)
            per_slot.setdefault(slot, []).append((local, data))
        slots = sorted(per_slot)
        calls = [
            (server._slot_port(entry, slot), "write_blocks",
             {"file_number": entry.efs_file_numbers[slot],
              "writes": per_slot[slot],
              "hint": server._hints.get((name, slot))},
             BLOCK_SIZE * len(per_slot[slot]))
            for slot in slots
        ]
        batches = yield from self.fanout(calls)
        for slot, batch in zip(slots, batches):
            for result in batch.results:
                self.learn(
                    entry,
                    interleave.global_block(slot, result.block_number),
                    result.addr,
                )

    # ------------------------------------------------------------------
    # Composed parallel-view paths (lock-step delivery / collection)
    # ------------------------------------------------------------------

    def lockstep_groups(self, job):
        """Yield groups of at most p in-range ``(worker_index, block)``
        pairs; workers past EOF get their eof delivery as the group
        forms (lazily, preserving the lock-step interleaving)."""
        entry = job.entry
        t = len(job.worker_ports)
        for group_start in range(0, t, entry.width):
            group = []
            for index in range(group_start, min(group_start + entry.width, t)):
                block = job.cursor + index
                if block < entry.total_blocks:
                    group.append((index, block))
                else:
                    self.server.node.send(
                        job.worker_ports[index],
                        BlockDelivery(job.job_id, index, block, None, eof=True),
                    )
            if group:
                yield group

    def deliver_group(self, job, group):
        """Deliver one lock-step group: cache/in-flight hits ship
        immediately; the misses fan out as one gather."""
        server = self.server
        entry = job.entry
        delivered = 0
        pending = []
        for index, block in group:
            data = yield from self.cached_or_inflight(entry.name, block)
            if data is not None:
                if server.config.cpu.bridge_cache_hit:
                    yield Timeout(server.config.cpu.bridge_cache_hit)
                server.node.send(
                    job.worker_ports[index],
                    BlockDelivery(job.job_id, index, block, data),
                    size=len(data),
                )
                delivered += 1
            else:
                pending.append((index, block))
        if not pending:
            return delivered
        calls = []
        for _index, block in pending:
            slot, local = entry.locate_block(block)
            calls.append(self.read_call(entry, entry.name, slot, local))
        results = yield from self.fanout(calls)
        for (index, block), result in zip(pending, results):
            slot, _local = entry.locate_block(block)
            self.feedback(entry.name, slot, result.next_addr)
            self.learn(entry, block, result.addr)
            server.node.send(
                job.worker_ports[index],
                BlockDelivery(job.job_id, index, block, result.data),
                size=len(result.data),
            )
            delivered += 1
        return delivered

    def collect_deposits(self, job) -> Dict[int, bytes]:
        """Wait for one deposit per worker on the job port."""
        t = len(job.worker_ports)
        deposits: Dict[int, bytes] = {}
        while len(deposits) < t:
            message = yield job.port.recv()
            if not isinstance(message, Deposit) or message.job_id != job.job_id:
                raise BridgeJobError(
                    f"job {job.job_id}: unexpected message {message!r}"
                )
            if message.worker_index in deposits:
                raise BridgeJobError(
                    f"job {job.job_id}: duplicate deposit from worker "
                    f"{message.worker_index}"
                )
            deposits[message.worker_index] = message.data
        return deposits

    def append_groups(self, entry: BridgeFileEntry, base: int,
                      chunks: Dict[int, bytes]):
        """Append t collected blocks in lock-step groups of p."""
        t = len(chunks)
        for group_start in range(0, t, entry.width):
            group = range(group_start, min(group_start + entry.width, t))
            calls = []
            for index in group:
                slot, local = entry.interleave.locate(base + index)
                calls.append(
                    self.write_call(entry, slot, local, chunks[index])
                )
            results = yield from self.fanout(calls)
            for index, result in zip(group, results):
                self.learn(entry, base + index, result.addr)

    # ------------------------------------------------------------------
    # Stage 4: prefetch feedback / detachment
    # ------------------------------------------------------------------

    def feedback(self, name: str, slot: int, next_addr) -> None:
        """Thread a completed transfer's next-block disk address back
        into the hint table (the "optimized path" of section 4.1)."""
        self.server._hints[(name, slot)] = next_addr

    def learn(self, entry: BridgeFileEntry, block: int, addr: int) -> None:
        """Remember where an EFS result said a global block lives, for
        :meth:`commit_write`'s hint.  Only while this server's directory
        holds ``entry`` itself: a job still pinned here after the name
        migrated out (``server.migrated_out``), or a read that was in
        flight across a delete, must not re-grow a departed file's
        table."""
        server = self.server
        if server._cache is not None and server.directory.holds(entry):
            server._cache.remember(entry.name, block, addr)

    def top_up(self, entry: BridgeFileEntry, name: str, frontier: int,
               depth: int) -> None:
        """S18 double buffering: start fetching the next stripe while
        the current one is read and shipped.

        Skipped for names this partition migrated out (S22): a parallel
        job still pinned here may keep reading through the shared LFS
        set, but nothing of the departed file may be re-installed into
        this cache — the new owner's writes would never invalidate it.
        """
        server = self.server
        if server._prefetcher is not None and name not in server.migrated_out:
            server._prefetcher.top_up(entry, name, frontier, depth=depth)

    def detach(self, generator) -> Detached:
        """Hand the transfer half of an op to a side process so the
        central server only spends routing time per request."""
        return Detached(generator)
