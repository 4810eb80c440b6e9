"""The Bridge Server (paper section 4.1, Table 1).

"The Bridge Server is the interface between the Bridge file system and
user programs.  Its function is to glue the local file systems together
into a single logical structure."  It is a single centralized process
(the paper notes a distributed collection would also work); all directory
mutations (Create, Delete, Open) funnel through it, making it a monitor
around file management.

Three views are implemented:

1. the **naive view** — Create / Delete / Open / Sequential Read /
   Random Read / Sequential Write / Random Write, with the server
   transparently forwarding each block request to the right LFS and
   threading disk-address hints (the "optimized path" set up by Open);
2. the **parallel-open view** — jobs of t workers with lock-step
   multi-block transfers and virtual parallelism when t > p;
3. the **tool view** — Get Info plus the constituent information that
   Open returns, after which tools talk to the LFS instances directly.

Open is "interpreted as a hint...  There is no close operation" — the
server refreshes its cached cursor/size/hint state at every open.

Since S20 every op handler is a thin composition of the staged request
pipeline (:mod:`repro.core.pipeline`): admission/resolution, cache,
windowed fan-out/gather, prefetch feedback.  The handlers below own
only per-op argument validation and directory state; all forwarding,
caching, and gathering goes through the stages.  The four metadata
verbs and their batched forms share one body
(:meth:`BridgeServer._run_verb`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.config import SystemConfig
from repro.core.batch import BATCH_SIZE_BOUNDS, FileStat, NameOutcome
from repro.core.cache import BridgeBlockCache
from repro.core.directory import BridgeDirectory, BridgeFileEntry
from repro.core.info import ConstituentInfo, LFSHandle, OpenResult, SystemInfo
from repro.core.ops import CONTROL_OPS
from repro.core.parallel import JobInfo
from repro.core.pipeline import RequestPipeline
from repro.core.prefetch import Prefetcher
from repro.errors import (
    BridgeBadRequestError,
    BridgeError,
    BridgeFileExistsError,
    BridgeJobError,
)
from repro.machine import Port, Response, Server
from repro.sim import Timeout


class _Job:
    """Server-side state of one parallel-open job."""

    __slots__ = ("job_id", "entry", "worker_ports", "cursor", "port")

    def __init__(self, job_id: int, entry: BridgeFileEntry,
                 worker_ports: List[Port], port: Port) -> None:
        self.job_id = job_id
        self.entry = entry
        self.worker_ports = worker_ports
        self.cursor = 0
        self.port = port


class _Verb(NamedTuple):
    """One metadata verb (Open / Stat / Create / Delete), stated once;
    :meth:`BridgeServer._run_verb` is the body that runs any of them."""

    #: The singleton's wire name; the batched op is ``"m" + name``.
    name: str
    #: ``step(server, name, **shape)``: the verb's work on one name
    #: inside the monitor.  Raises ``BridgeError`` to refuse the name;
    #: what it returns is the name's *state* — its value, unless an EFS
    #: fan-out follows.
    step: Callable
    #: ``step`` is a generator: Create spawns its constituents name by
    #: name, before the next name is validated.
    spawns: bool = False
    #: The verb mutates the directory: one update charge per request.
    commits: bool = False
    #: What every constituent of every surviving name (its state is its
    #: directory entry) then receives, and ``value(server, name, entry,
    #: replies)``: what the name returns.
    efs_method: Optional[str] = None
    value: Optional[Callable] = None
    #: The EFS fan-out runs in a side process.
    detached: bool = False


class BridgeServer(Server):
    """The centralized Bridge Server process."""

    def __init__(
        self,
        node,
        lfs_handles: List[LFSHandle],
        config: SystemConfig,
        relay_ports: Optional[List[Port]] = None,
        name: str = "bridge",
        file_id_start: int = 1,
        file_id_step: int = 1,
    ) -> None:
        if not lfs_handles:
            raise ValueError("Bridge needs at least one LFS instance")
        super().__init__(node, name)
        self.lfs = list(lfs_handles)
        self.config = config
        self.relay_ports = list(relay_ports) if relay_ports else None
        self.directory = BridgeDirectory(
            file_id_start=file_id_start, file_id_step=file_id_step
        )
        self._cursors: Dict[str, int] = {}
        self._hints: Dict[Tuple[str, int], int] = {}
        self._jobs: Dict[int, _Job] = {}
        self._next_job_id = 1
        # S18: server-side block cache + striped read-ahead.  Both off by
        # default (cache-off reproduces the paper's timings exactly); a
        # prefetch window without an explicit cache size auto-sizes the
        # cache to hold a few windows per constituent.
        cache_blocks = config.bridge_cache_blocks
        if config.prefetch_window > 0 and cache_blocks <= 0:
            cache_blocks = 4 * config.prefetch_window * len(self.lfs)
        self._cache: Optional[BridgeBlockCache] = (
            BridgeBlockCache(cache_blocks) if cache_blocks > 0 else None
        )
        self._prefetcher: Optional[Prefetcher] = (
            Prefetcher(self, self._cache, config.prefetch_window)
            if config.prefetch_window > 0 and self._cache is not None
            else None
        )
        # S20: the staged request engine every op composes.
        self.pipeline = RequestPipeline(self)
        # S21: admission control (token bucket / bounded queue / weighted
        # fair queueing).  None — the seed default — admits everything
        # with zero extra branches on the hot path.
        self.admission = None
        # S22 live migration: routing cost of a forwarded request, the
        # ops the base loop must never redirect (control-plane rows of
        # the op table: they carry ``name`` but must execute where
        # addressed), and the names this partition has migrated *out* —
        # consulted by the prefetcher seam so a still-pinned parallel job
        # cannot re-install blocks of a departed file into this cache.
        self._forward_cost = config.cpu.bridge_forward
        self._forward_exempt = CONTROL_OPS
        self.migrated_out: set = set()

    def install_admission(self, control) -> None:
        """Attach an S21 admission control to this server instance.

        Installs the policy at the pipeline admission stage and, when the
        policy carries a queue, fronts the server mailbox with it (as
        ``Server.scheduler``: the base loop then takes each request from
        ``Server._next_request`` instead of receiving inline).  Call at
        any point — e.g. after experiment setup so catalog builds are not
        rate-limited."""
        self.admission = control
        self.scheduler = getattr(control, "queue", None) if control is not None else None
        if control is not None:
            control.bind(self)

    # ==================================================================
    # File management (the monitor)
    # ==================================================================

    def op_create(self, name, width=None, node_slots=None, start=0,
                  disordered=False):
        """Create an interleaved file across ``width`` LFS instances.

        ``node_slots`` optionally picks which LFS handles (by index into
        the system's LFS list) serve slots 0..width-1 — the sort tool uses
        this to build intermediate files on node subsets.  ``disordered``
        creates a section-3 "disordered file": blocks scatter arbitrarily
        (the server keeps the global->local map) at the expense of strict
        interleaving's consecutive-block guarantee.
        """
        return self._run_verb(
            self._CREATE, name, None, width=width, node_slots=node_slots,
            start=start, disordered=disordered,
        )

    def op_mcreate(self, names, width=None, node_slots=None, start=0,
                   disordered=False):
        """Batched create (shared shape): the spawns run name by name,
        the probe and the directory-update commit are paid once.  A
        duplicate name — in the directory or earlier in the same batch —
        gets the same exists error the singleton op raises."""
        return self._run_verb(
            self._CREATE, None, names, width=width, node_slots=node_slots,
            start=start, disordered=disordered,
        )

    def op_delete(self, name):
        """Delete on all LFS in parallel; each LFS walk is O(n/p).

        Directory removal happens synchronously (the server is the
        monitor around file management), but the LFS walks — seconds for
        big files — run detached so one large delete does not serialize
        every other client behind the central server.
        """
        return self._run_verb(self._DELETE, name)

    def op_mdelete(self, names):
        """Batched delete: one commit for the batch, every LFS walk in a
        single detached windowed fan-out."""
        return self._run_verb(self._DELETE, None, names)

    def op_open(self, name):
        """Set up the optimized path: refresh sizes and hints, reset the
        sequential cursor, and return the constituent information."""
        return self._run_verb(self._OPEN, name)

    def op_mopen(self, names):
        """Batched Open: one windowed info fan-out covers every
        ``(name, slot)`` leg of the whole batch."""
        return self._run_verb(self._OPEN, None, names)

    def op_stat(self, name):
        """Directory-only metadata probe: what the server knows without
        an LFS round trip.  ``total_blocks`` is as of the last open or
        write through this server — Open itself is only "a hint"
        (section 4.1), so a stat is the cheap hint-refresh parallel
        utilities want when walking thousands of names."""
        return self._run_verb(self._STAT, name)

    def op_mstat(self, names):
        """Batched stat: no LFS traffic at all — the whole batch is
        served out of the one metadata sweep ``admit(batch=n)`` charges."""
        return self._run_verb(self._STAT, None, names)

    def op_find(self, prefix=""):
        """Enumerate directory names with a prefix, sorted.

        The Bridge namespace is flat, so a "deep tree" is a family of
        ``/``-separated name prefixes; one find per partition is the
        enumeration primitive under ``pfind``/``pcp -r``/``prm -r``.
        Names whose migration is in flight at this instant live in
        exactly one partition's directory or in the mover's hands, so a
        cross-partition find during a resize sweep can miss an in-flight
        name — utilities enumerate before or after a sweep, and the
        batched m-ops (which chase forwards per name) are the
        migration-safe surface.
        """
        yield from self.pipeline.admit(probe=True)
        return [name for name in self.directory.names()
                if name.startswith(prefix)]

    def op_get_info(self):
        """The tool bootstrap package (Table 1: Get Info -> LFS handles)."""
        yield from self.pipeline.admit()
        return SystemInfo(lfs=list(self.lfs), server_port=self.port)

    # ------------------------------------------------------------------
    # The four metadata verbs, each stated once, and their one driver
    # ------------------------------------------------------------------

    def _create_one(self, name, width, node_slots, start, disordered):
        """Create's per-name step: everything between the admission
        charge and the directory-update commit — validation, the
        staged/tree constituent spawn, and the directory insert."""
        if self.directory.exists(name):
            raise BridgeFileExistsError(f"bridge file {name!r} exists")
        slots = self._resolve_slots(width, node_slots)
        width = len(slots)
        if not 0 <= start < width:
            raise BridgeBadRequestError(f"start {start} outside width {width}")
        file_id = self.directory.allocate_file_id()
        entry = BridgeFileEntry(
            name=name,
            file_id=file_id,
            width=width,
            start=start,
            node_indexes=[self.lfs[s].node_index for s in slots],
            efs_file_numbers=[file_id] * width,
            total_blocks=0,
            disordered=disordered,
            block_map=[] if disordered else None,
        )
        args_per_slot = [
            {
                "file_number": file_id,
                "global_file_id": file_id,
                "width": width,
                "column": entry.interleave.column_of_slot(slot),
            }
            for slot in range(width)
        ]
        if self.config.create_uses_tree and self.relay_ports is not None:
            yield from self.pipeline.spawn_tree(
                [
                    {
                        "efs_port": self.lfs[slot].port,
                        "relay_port": self.relay_ports[slot],
                        "args": args,
                    }
                    for slot, args in zip(slots, args_per_slot)
                ],
                relay_method="create",
            )
        else:
            yield from self.pipeline.spawn_staged(
                [(self.lfs[slot].port, "create", args)
                 for slot, args in zip(slots, args_per_slot)]
            )
        self.directory.insert(entry)
        self._cursors[name] = 0
        # Name reuse after delete: nothing cached may survive.
        self.pipeline.evict_file(name)
        self.migrated_out.discard(name)
        return file_id

    def _unlink(self, name):
        """The synchronous per-name half of every op that takes a name
        out of this directory (Delete, ``migrate_out``): drop the entry,
        its cursor and its disk hints, and bump the S18 cache
        generation.  Returns ``(entry, cursor)``."""
        entry = self.directory.remove(name)
        cursor = self._cursors.pop(name, None)
        for slot in range(entry.width):
            self._hints.pop((name, slot), None)
        self.pipeline.evict_file(name)
        return entry, cursor

    def _open_result(self, name, entry, infos) -> OpenResult:
        """Turn one name's per-constituent ``info`` replies into the open
        package: size reconciliation, hint feedback, cursor reset
        (synchronous — the fan-out already happened)."""
        sizes = [info.size_blocks for info in infos]
        if entry.disordered:
            if sum(sizes) != len(entry.block_map or []):
                raise BridgeBadRequestError(
                    f"{name!r}: disordered map has {len(entry.block_map or [])} "
                    f"entries but the LFS hold {sum(sizes)} blocks (disordered "
                    "files must be written through the Bridge Server)"
                )
            entry.total_blocks = sum(sizes)
        else:
            entry.total_blocks = entry.interleave.total_from_sizes(sizes)
        constituents = []
        for slot, info in enumerate(infos):
            constituents.append(
                ConstituentInfo(
                    slot=slot,
                    column=entry.interleave.column_of_slot(slot),
                    node_index=entry.node_indexes[slot],
                    lfs_port=self._slot_port(entry, slot),
                    efs_file_number=entry.efs_file_numbers[slot],
                    size_blocks=info.size_blocks,
                    head_addr=info.head_addr,
                )
            )
            self.pipeline.feedback(name, slot, info.head_addr)
        self._cursors[name] = 0
        return OpenResult(
            name=name,
            file_id=entry.file_id,
            width=entry.width,
            start=entry.start,
            total_blocks=entry.total_blocks,
            constituents=constituents,
        )

    def _stat_of(self, entry: BridgeFileEntry) -> FileStat:
        return FileStat(
            name=entry.name,
            file_id=entry.file_id,
            width=entry.width,
            start=entry.start,
            total_blocks=entry.total_blocks,
            disordered=entry.disordered,
        )

    _OPEN = _Verb(
        "open", lambda self, name: self.pipeline.resolve(name),
        efs_method="info", value=_open_result,
    )
    _STAT = _Verb(
        "stat", lambda self, name: self._stat_of(self.pipeline.resolve(name)),
    )
    _CREATE = _Verb("create", _create_one, spawns=True, commits=True)
    _DELETE = _Verb(
        "delete", lambda self, name: self._unlink(name)[0],
        efs_method="delete", commits=True, detached=True,
        value=lambda self, name, entry, freed: sum(freed),
    )

    def _run_verb(self, verb: _Verb, name, names=None, **shape):
        """The one body of Open / Stat / Create / Delete: run ``verb``
        over the batch ``names`` or — ``names=None`` — over the single
        ``name`` of a singleton op (``shape``: Create's arguments).

        Stages, in order: admission (one probe; a batch also pays its
        per-name charge, is counted, and is split against ``forward_to``
        — the base loop already forwarded a singleton by ``name``); the
        verb's step inside the monitor, name by name; one commit if the
        verb mutates the directory; one windowed fan-out of the verb's
        EFS method to every constituent of every surviving name
        (detached for Delete, whose walks are O(n/p)); the per-name
        value.  A batch catches a ``BridgeError`` as *that name's*
        outcome; a singleton catches nothing, so the error is raised
        where it happens and a refused create/delete never pays the
        commit.  Names caught in a migration's forwarding window are
        chased from a detached side process: the server keeps serving,
        and two partitions chasing into each other can never deadlock
        the fabric."""
        pipeline = self.pipeline
        if names is None:
            yield from pipeline.admit(probe=True)
            local, moved, outcomes, refusal = ((0, name),), (), None, ()
        else:
            local, moved, outcomes = yield from self._batch_begin(
                "m" + verb.name, names
            )
            refusal = BridgeError
        live = []
        for index, name in local:
            try:
                state = verb.step(self, name, **shape)
                if verb.spawns:
                    state = yield from state
            except refusal as exc:
                outcomes[index] = NameOutcome(name, error=exc)
            else:
                live.append((index, name, state))
        if verb.commits:
            yield from pipeline.commit()

        # Its own generator because Delete runs it in a side process.
        def finish(moved):
            replies = repeat(None)
            if verb.efs_method is not None:
                replies = yield from self._per_constituent(
                    [entry for _index, _name, entry in live], verb.efs_method
                )
            for (index, name, state), reply in zip(live, replies):
                try:
                    value = (state if verb.value is None
                             else verb.value(self, name, state, reply))
                except refusal as exc:
                    outcomes[index] = NameOutcome(name, error=exc)
                else:
                    if outcomes is None:
                        return value
                    outcomes[index] = NameOutcome(name, value=value)
            if moved:
                yield from self._chase(outcomes, moved, verb.name, shape)
            return outcomes

        if verb.detached:
            return pipeline.detach(finish(moved))
        result = yield from finish(())
        if moved:
            return pipeline.detach(
                self._chase(outcomes, moved, verb.name, shape)
            )
        return result

    def _per_constituent(self, entries, method):
        """One windowed fan-out of ``method`` to every constituent of
        every entry; returns the replies grouped per entry, slot order."""
        replies = iter((yield from self.pipeline.fanout(
            [
                (self._slot_port(entry, slot), method,
                 {"file_number": entry.efs_file_numbers[slot]}, 0)
                for entry in entries
                for slot in range(entry.width)
            ]
        )))
        return [[next(replies) for _slot in range(entry.width)]
                for entry in entries]

    def _batch_begin(self, op: str, names):
        """The batched prologue: validate and count the batch (S19
        telemetry: the batch-size histogram plus per-op batched
        counters, so SLO dashboards can tell batched from singleton
        metadata traffic), charge the one amortized admission, then
        partition it against the S22 forwarding table.

        Returns ``(local, moved, outcomes)``: ``(index, name)`` pairs
        served locally, ``(index, name, target)`` entries caught in a
        migration's double-read window, and the empty per-name outcome
        list the driver fills."""
        names = list(names)
        if not names:
            raise BridgeBadRequestError(f"{op}: empty name batch")
        obs = self.node.machine.sim.obs
        if obs is not None:
            obs.metrics.histogram(
                "bridge.batch.names", BATCH_SIZE_BOUNDS
            ).observe(len(names))
            obs.metrics.counter(f"{self.name}.batch.{op}.batches").inc()
            obs.metrics.counter(f"{self.name}.batch.{op}.names").inc(len(names))
        yield from self.pipeline.admit(probe=True, batch=len(names))
        local = []
        moved = []
        for index, name in enumerate(names):
            target = self.forward_to.get(name)
            if target is None:
                local.append((index, name))
            else:
                moved.append((index, name, target))
        return local, moved, [None] * len(names)

    def _chase(self, outcomes, moved, method, shape):
        """Forward batch members through the S22 double-read window as
        singleton ops on the entry's new home, settling each name
        independently (the target's own loop forwards any further hop).
        Charges the same per-request routing CPU as a loop-level
        redirect."""
        if self._forward_cost > 0.0:
            yield Timeout(self._forward_cost * len(moved))
        self.forwarded += len(moved)
        settled = yield from self.pipeline.fanout_settled(
            [(target, method, {"name": name, **shape}, 0)
             for _index, name, target in moved]
        )
        for (index, name, _target), (value, error) in zip(moved, settled):
            outcomes[index] = NameOutcome(name, value=value, error=error)
        return outcomes

    # ==================================================================
    # S22 live migration (the elastic fabric's entry-move protocol)
    # ==================================================================

    def op_migrate_out(self, name, forward_to=None):
        """Release ``name`` to the partition now owning it.

        Called *by the destination server* (nested inside its
        ``migrate_in``).  Removes the directory entry, cursor, and disk
        hints; bumps the S18 cache generation for the name (evicting
        every cached block and invalidating any in-flight install); and
        leaves a forwarding entry to ``forward_to`` so requests routed
        by the old ring chase the entry to its new home.  Block data
        never moves — every partition serves the same LFS set, so the
        namespace entry *is* the file's location.  Returns ``None`` when
        the entry vanished (deleted mid-sweep): the destination then
        simply retires its redirect.
        """
        yield from self.pipeline.admit(probe=True)
        if not self.directory.exists(name):
            return None
        entry, cursor = self._unlink(name)
        self.migrated_out.add(name)
        if forward_to is not None:
            self.forward_to[name] = forward_to
        yield from self.pipeline.commit()
        return {"entry": entry, "cursor": cursor}

    def op_migrate_in(self, name, src_port):
        """Pull ``name``'s namespace entry from its old partition.

        The destination drives the pull itself so there is no window
        where both sides forward to each other: its redirect for
        ``name`` stays up until the entry has landed, and because the
        server is one simulated process, any request that queued behind
        this handler dispatches only after the insert below.  The entry
        object moves by reference, so a parallel job still pinned to the
        source keeps operating on the same (shared-LFS) file state.
        Returns True if the entry moved, False if it had vanished.
        """
        # Plain admit: the probe happens at the source (which consults
        # its directory); this side's insert is covered by commit().
        yield from self.pipeline.admit()
        states = yield from self.pipeline.fanout(
            [(src_port, "migrate_out",
              {"name": name, "forward_to": self.port}, 0)]
        )
        state = states[0]
        self.forward_to.pop(name, None)
        if state is None:
            yield from self.pipeline.commit()
            return False
        self.directory.insert(state["entry"])
        if state["cursor"] is not None:
            self._cursors[name] = state["cursor"]
        # Defensive coherence: nothing cached locally may survive an
        # ownership change (a prior residency, or a prior migration of a
        # since-recreated name).
        self.pipeline.evict_file(name)
        self.migrated_out.discard(name)
        yield from self.pipeline.commit()
        return True

    # ==================================================================
    # Naive view: sequential and random block access
    # ==================================================================

    def op_seq_read(self, name):
        """Read the block at the cursor; returns (block_number, data) or
        (None, None) at end of file.

        The cursor advances synchronously; the LFS transfer itself is
        *forwarded* (detached), so the central server only spends routing
        time per request — "the Bridge Server transparently forwards
        requests to the appropriate LFS" (section 4.1).

        With the S18 cache/prefetch pipeline enabled, the cursor stream
        is recognized as sequential and the next ``prefetch_window * p``
        blocks are fetched asynchronously from all constituents; cache
        hits are answered in-line for ``bridge_cache_hit`` (a hash probe
        and LRU touch instead of the full request decode + directory
        consult + EFS round trip).
        """
        hit = yield from self.pipeline.probe(name)
        if hit is not None:
            return hit
        yield from self.pipeline.admit()
        entry = self.pipeline.resolve(name)
        cursor = self._cursors.get(name, 0)
        if cursor >= entry.total_blocks:
            return Response(value=(None, None))
        self._cursors[name] = cursor + 1

        def forward():
            data = yield from self.pipeline.demand_read(entry, name, cursor)
            return Response(value=(cursor, data), size=len(data))

        return self.pipeline.detach(forward())

    def op_seq_write(self, name, data):
        """Append one block at the end of the file."""
        yield from self.pipeline.admit()
        entry = self.pipeline.resolve(name)
        block = entry.total_blocks
        self.pipeline.invalidate(name, block)
        yield from self.pipeline.commit_write(entry, name, block, data)
        entry.total_blocks = block + 1
        return block

    def op_random_read(self, name, block_number):
        """Random read; the LFS transfer is forwarded like op_seq_read.

        Consecutive random reads count toward stream recognition (S18),
        so a client walking a file with ``random_read`` also triggers
        the striped read-ahead pipeline once the pattern is sequential;
        hits pay ``bridge_cache_hit`` instead of the full request charge.
        """
        hit = yield from self.pipeline.probe(name, block_number)
        if hit is not None:
            return hit
        yield from self.pipeline.admit()
        entry = self.pipeline.resolve(name)
        if not 0 <= block_number < entry.total_blocks:
            raise BridgeBadRequestError(
                f"{name!r}: block {block_number} outside file of "
                f"{entry.total_blocks} blocks"
            )

        def forward():
            data = yield from self.pipeline.demand_read(
                entry, name, block_number
            )
            return Response(value=data, size=len(data))

        return self.pipeline.detach(forward())

    def op_get_block_map(self, name):
        """The global->local map of a disordered file (tool view)."""
        yield from self.pipeline.admit()
        entry = self.pipeline.resolve(name)
        if not entry.disordered:
            raise BridgeBadRequestError(f"{name!r} is strictly interleaved")
        return list(entry.block_map or [])

    def op_random_write(self, name, block_number, data):
        yield from self.pipeline.admit()
        entry = self.pipeline.resolve(name)
        if not 0 <= block_number <= entry.total_blocks:
            raise BridgeBadRequestError(
                f"{name!r}: block {block_number} outside writable range "
                f"[0, {entry.total_blocks}]"
            )
        self.pipeline.invalidate(name, block_number)
        yield from self.pipeline.commit_write(entry, name, block_number, data)
        if block_number == entry.total_blocks:
            entry.total_blocks += 1
        return block_number

    # ==================================================================
    # List I/O (noncontiguous access, S17)
    # ==================================================================

    def op_list_read(self, name, blocks):
        """Noncontiguous read: one batched EFS request per touched LFS.

        ``blocks`` is the global block list of a
        :class:`~repro.collective.ListIORequest` (request order preserved
        in the returned data).  The server decomposes it per constituent
        and ships each LFS *one* ``read_blocks`` message instead of one
        RPC per block; like the other naive-view reads, the fan-out and
        reassembly run detached so a big list read does not serialize
        unrelated clients behind the central server.
        """
        yield from self.pipeline.admit()
        entry = self.pipeline.resolve(name)
        blocks = list(blocks)
        if not blocks:
            return Response(value=[])
        per_slot = self.pipeline.decompose(entry, name, blocks)

        def reassemble():
            by_location = yield from self.pipeline.gather_batches(
                entry, name, per_slot
            )
            data = [by_location[entry.locate_block(block)] for block in blocks]
            return Response(value=data, size=sum(len(d) for d in data))

        return self.pipeline.detach(reassemble())

    def op_list_write(self, name, writes):
        """Noncontiguous write: one batched EFS request per touched LFS.

        ``writes`` is a list of ``(global_block, data)`` pairs.  In-place
        updates may scatter anywhere in the file; appended blocks must
        form a dense run starting at the current end (the file-level
        no-sparse rule, matching the per-constituent EFS rule).  Returns
        the file's new total size in blocks.
        """
        yield from self.pipeline.admit()
        entry = self.pipeline.resolve(name)
        writes = list(writes)
        if not writes:
            return entry.total_blocks
        new_total = self.pipeline.validate_list_write(entry, name, writes)
        self.pipeline.invalidate(
            name, *(block for block, _data in writes)
        )
        yield from self.pipeline.scatter_batches(entry, name, writes)
        entry.total_blocks = new_total
        return new_total

    # ==================================================================
    # Parallel-open view
    # ==================================================================

    def op_parallel_open(self, name, worker_ports):
        yield from self.pipeline.admit(probe=True)
        if not worker_ports:
            raise BridgeJobError("parallel open needs at least one worker")
        entry = self.pipeline.resolve(name)
        job_id = self._next_job_id
        self._next_job_id += 1
        job = _Job(job_id, entry, list(worker_ports), self.node.port(f"job{job_id}"))
        self._jobs[job_id] = job
        return JobInfo(
            job_id=job_id,
            file_name=name,
            width=entry.width,
            total_blocks=entry.total_blocks,
            worker_count=len(job.worker_ports),
            job_port=job.port,
            server_port=self.port,
        )

    def op_parallel_read(self, job_id):
        """Deliver the next t blocks, one per worker, p at a time.

        "Although the performance of parallel operations is limited by
        the number of nodes in the file system (p), the Bridge Server
        will simulate any degree of parallelism" — groups of p accesses
        run in parallel; successive groups are sequential (lock step).
        """
        yield from self.pipeline.admit()
        job = self._job(job_id)
        entry = job.entry
        t = len(job.worker_ports)
        # S18 double buffering: start fetching the *next* delivery's
        # stripe while this one is read and shipped to the workers.
        self.pipeline.top_up(entry, entry.name, job.cursor + t, depth=t)
        delivered = 0
        for group in self.pipeline.lockstep_groups(job):
            delivered += yield from self.pipeline.deliver_group(job, group)
        job.cursor += t
        return delivered

    def op_parallel_write(self, job_id):
        """Collect one deposit per worker and append them in order."""
        yield from self.pipeline.admit()
        job = self._job(job_id)
        entry = job.entry
        if entry.disordered:
            raise BridgeJobError(
                f"{entry.name!r}: parallel write is not supported on "
                "disordered files (use the naive view)"
            )
        deposits = yield from self.pipeline.collect_deposits(job)
        base = entry.total_blocks
        yield from self.pipeline.append_groups(entry, base, deposits)
        entry.total_blocks = base + len(deposits)
        job.cursor = entry.total_blocks
        return entry.total_blocks

    def op_parallel_close(self, job_id):
        yield from self.pipeline.admit()
        self._job(job_id)
        del self._jobs[job_id]
        return None

    # ==================================================================
    # Internals
    # ==================================================================

    def _resolve_slots(self, width, node_slots):
        if node_slots is not None:
            slots = list(node_slots)
            if width is not None and width != len(slots):
                raise BridgeBadRequestError(
                    f"width {width} != len(node_slots) {len(slots)}"
                )
        else:
            slots = list(range(width if width is not None else len(self.lfs)))
        if not slots:
            raise BridgeBadRequestError("file needs at least one slot")
        for slot in slots:
            if not 0 <= slot < len(self.lfs):
                raise BridgeBadRequestError(
                    f"LFS index {slot} outside [0, {len(self.lfs)})"
                )
        return slots

    def _slot_port(self, entry: BridgeFileEntry, slot: int) -> Port:
        node_index = entry.node_indexes[slot]
        for handle in self.lfs:
            if handle.node_index == node_index:
                return handle.port
        raise BridgeBadRequestError(f"no LFS on node {node_index}")

    def _job(self, job_id: int) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise BridgeJobError(f"unknown job {job_id}")
        return job

    def bridge_cache_stats(self) -> Optional[Dict[str, object]]:
        """S18 cache/prefetch counters for reports and benches.

        ``None`` when the cache is disabled (the seed configuration).
        """
        if self._cache is None:
            return None
        cache = self._cache
        stats: Dict[str, object] = {
            "capacity": cache.capacity,
            "cached_blocks": len(cache),
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": cache.hit_rate,
            "installs": cache.installs,
            "evictions": cache.evictions,
            "invalidations": cache.invalidations,
            "prefetch_installs": cache.prefetch_installs,
            "prefetch_used": cache.prefetch_used,
            "prefetch_wasted": cache.prefetch_wasted,
        }
        if self._prefetcher is not None:
            stats.update(
                prefetch_window=self._prefetcher.window,
                prefetch_issued=self._prefetcher.issued,
                prefetch_completed=self._prefetcher.completed,
                prefetch_dropped=self._prefetcher.dropped,
                stream_recognitions=self._prefetcher.detector.recognitions,
            )
        return stats
