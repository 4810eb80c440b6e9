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

Every op handler composes the request stages listed on
:class:`BridgeServer`; the handlers own only per-op argument validation
and directory state.  The four metadata verbs and their batched forms
share one body (:meth:`BridgeServer._run_verb`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.config import BLOCK_SIZE, SystemConfig
from repro.core.batch import BATCH_SIZE_BOUNDS, FileStat, NameOutcome
from repro.core.cache import BridgeBlockCache
from repro.core.directory import (
    BridgeDirectory,
    BridgeFileEntry,
    check_block_writes,
)
from repro.core.info import ConstituentInfo, LFSHandle, OpenResult, SystemInfo
from repro.core.ops import CONTROL_OPS
from repro.core.parallel import BlockDelivery, Deposit, JobInfo
from repro.core.prefetch import Prefetcher
from repro.errors import (
    BridgeBadRequestError,
    BridgeError,
    BridgeFileExistsError,
    BridgeJobError,
)
from repro.machine import Port, ReplyCell, Request, Response, Server, gather
from repro.machine.rpc import Detached, gather_settled
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
    """The centralized Bridge Server process.

    Every handler runs the same request stages, in order:

    1. **admission** — :meth:`admit` charges the decode (plus the
       directory probe for monitor operations) behind any S21 admission
       control; a directory mutation then pays ``_update_charge``;
    2. **cache** — :meth:`probe` answers S18 hits ahead of admission,
       :meth:`invalidate` drops cached copies before a write leaves, and
       :meth:`demand_read` is the detached fill path;
    3. **fan-out** — every EFS message leaves through :meth:`fanout`,
       windowed by ``config.bridge_fanout_limit``; :meth:`spawn_staged`
       and :meth:`spawn_tree` are Create's two spawn shapes;
    4. **landing** — :meth:`_landed` threads a read's next-block disk
       address into the hint table and :meth:`learn` remembers each
       block's own address for the next in-place write.

    Redundancy (S16) is not a stage: parity and degraded reads are
    client-side wrappers in :mod:`repro.redundancy`.
    """

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
        # ``config`` is frozen: the decode charge a plain request pays
        # at admission and the directory-update charge every mutation
        # pays are one Timeout each for the life of the server.
        self._plain_admission = (Timeout(config.cpu.bridge_request),)
        self._update_charge = Timeout(config.cpu.bridge_directory_update)
        # slot routing: the LFS port on each node (the first handle wins)
        self._port_on_node: Dict[int, Port] = {}
        for handle in reversed(self.lfs):
            self._port_on_node[handle.node_index] = handle.port
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

        Installs the policy at the admission stage and, when the
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

    def op_mcreate(self, names, width=None):
        """Batched create (a shared width, interleaved from slot 0): the
        spawns run name by name, the probe and the directory-update
        commit are paid once.  A duplicate name — in the directory or
        earlier in the same batch — gets the same exists error the
        singleton op raises."""
        return self._run_verb(
            self._CREATE, None, names, width=width, node_slots=None,
            start=0, disordered=False,
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
        (section 4.1), so a stat is the cheap hint-refresh a metadata
        sweep wants when probing thousands of names."""
        return self._run_verb(self._STAT, name)

    def op_mstat(self, names):
        """Batched stat: no LFS traffic at all — the whole batch is
        served out of the one metadata sweep ``admit(batch=n)`` charges."""
        return self._run_verb(self._STAT, None, names)

    def op_get_info(self):
        """The tool bootstrap package (Table 1: Get Info -> LFS handles)."""
        yield from self.admit()
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
            yield from self.spawn_tree(
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
            yield from self.spawn_staged(
                [(self.lfs[slot].port, "create", args)
                 for slot, args in zip(slots, args_per_slot)]
            )
        self.directory.insert(entry)
        self._cursors[name] = 0
        # Name reuse after delete: nothing cached may survive.
        self.evict_file(name)
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
        self.evict_file(name)
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
            self._hints[(name, slot)] = info.head_addr
        self._cursors[name] = 0
        return OpenResult(
            name=name,
            file_id=entry.file_id,
            width=entry.width,
            start=entry.start,
            total_blocks=entry.total_blocks,
            constituents=constituents,
            disordered=entry.disordered,
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
        "open", lambda self, name: self.directory.lookup(name),
        efs_method="info", value=_open_result,
    )
    _STAT = _Verb(
        "stat", lambda self, name: self._stat_of(self.directory.lookup(name)),
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
        if names is None:
            yield from self.admit(probe=True)
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
            yield self._update_charge

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
            return Detached(finish(moved))
        result = yield from finish(())
        if moved:
            return Detached(self._chase(outcomes, moved, verb.name, shape))
        return result

    def _per_constituent(self, entries, method):
        """One windowed fan-out of ``method`` to every constituent of
        every entry; returns the replies grouped per entry, slot order."""
        replies = iter((yield from self.fanout(
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
        yield from self.admit(probe=True, batch=len(names))
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
        settled = yield from gather_settled(
            self.node,
            [(target, method, {"name": name, **shape}, 0)
             for _index, name, target in moved],
            max_in_flight=self.config.bridge_fanout_limit or None,
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
        yield from self.admit(probe=True)
        if not self.directory.exists(name):
            return None
        entry, cursor = self._unlink(name)
        self.migrated_out.add(name)
        if forward_to is not None:
            self.forward_to[name] = forward_to
        yield self._update_charge
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
        yield from self.admit()
        states = yield from self.fanout(
            [(src_port, "migrate_out",
              {"name": name, "forward_to": self.port}, 0)]
        )
        state = states[0]
        self.forward_to.pop(name, None)
        if state is None:
            yield self._update_charge
            return False
        self.directory.insert(state["entry"])
        if state["cursor"] is not None:
            self._cursors[name] = state["cursor"]
        # Defensive coherence: nothing cached locally may survive an
        # ownership change (a prior residency, or a prior migration of a
        # since-recreated name).
        self.evict_file(name)
        self.migrated_out.discard(name)
        yield self._update_charge
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
        if self._cache is not None:
            hit = yield from self.probe(name)
            if hit is not None:
                return hit
        yield from self.admit()
        entry = self.directory.lookup(name)
        cursor = self._cursors.get(name, 0)
        if cursor >= entry.total_blocks:
            return Response(value=(None, None))
        self._cursors[name] = cursor + 1
        return Detached(self._forward_read(entry, name, cursor, True))

    def op_seq_write(self, name, data):
        """Append one block at the end of the file."""
        yield from self.admit()
        entry = self.directory.lookup(name)
        block = entry.total_blocks
        self.invalidate(name, block)
        yield from self.commit_write(entry, name, block, data)
        entry.total_blocks = block + 1
        return block

    def op_random_read(self, name, block_number):
        """Random read; the LFS transfer is forwarded like op_seq_read.

        Consecutive random reads count toward stream recognition (S18),
        so a client walking a file with ``random_read`` also triggers
        the striped read-ahead pipeline once the pattern is sequential;
        hits pay ``bridge_cache_hit`` instead of the full request charge.
        """
        if self._cache is not None:
            hit = yield from self.probe(name, block_number)
            if hit is not None:
                return hit
        yield from self.admit()
        entry = self.directory.lookup(name)
        if not 0 <= block_number < entry.total_blocks:
            raise BridgeBadRequestError(
                f"{name!r}: block {block_number} outside file of "
                f"{entry.total_blocks} blocks"
            )
        return Detached(self._forward_read(entry, name, block_number, False))

    def _forward_read(self, entry: BridgeFileEntry, name: str, block: int,
                      numbered: bool):
        """The detached half of a naive-view read: the block's data,
        as ``(block, data)`` when ``numbered`` (Sequential Read)."""
        data = yield from self.demand_read(entry, name, block)
        return Response(value=(block, data) if numbered else data,
                        size=len(data))

    def op_get_block_map(self, name):
        """The global->local map of a disordered file (tool view)."""
        yield from self.admit()
        entry = self.directory.lookup(name)
        if not entry.disordered:
            raise BridgeBadRequestError(f"{name!r} is strictly interleaved")
        return list(entry.block_map or [])

    def op_random_write(self, name, block_number, data):
        yield from self.admit()
        entry = self.directory.lookup(name)
        if not 0 <= block_number <= entry.total_blocks:
            raise BridgeBadRequestError(
                f"{name!r}: block {block_number} outside writable range "
                f"[0, {entry.total_blocks}]"
            )
        self.invalidate(name, block_number)
        yield from self.commit_write(entry, name, block_number, data)
        if block_number == entry.total_blocks:
            entry.total_blocks += 1
        return block_number

    # ==================================================================
    # List I/O (noncontiguous access, S17)
    # ==================================================================

    def op_list_read(self, name, blocks):
        """Noncontiguous read: one batched EFS request per touched LFS.

        ``blocks`` is a list of global block numbers; the returned data
        follows its order.  The server decomposes it per constituent
        and ships each LFS *one* ``read_blocks`` message instead of one
        RPC per block; like the other naive-view reads, the fan-out and
        reassembly run detached so a big list read does not serialize
        unrelated clients behind the central server.
        """
        yield from self.admit()
        entry = self.directory.lookup(name)
        blocks = list(blocks)
        if not blocks:
            return Response(value=[])
        per_slot = self.decompose(entry, name, blocks)

        def reassemble():
            by_location = yield from self.gather_batches(
                entry, name, per_slot
            )
            data = [by_location[entry.locate_block(block)] for block in blocks]
            return Response(value=data, size=sum(len(d) for d in data))

        return Detached(reassemble())

    def op_list_write(self, name, writes):
        """Noncontiguous write: one batched EFS request per touched LFS.

        ``writes`` is a list of ``(global_block, data)`` pairs, checked
        by :func:`~repro.core.directory.check_block_writes`.  Returns the
        file's new total size in blocks.
        """
        yield from self.admit()
        entry = self.directory.lookup(name)
        writes = list(writes)
        if not writes:
            return entry.total_blocks
        if entry.disordered:
            raise BridgeBadRequestError(
                f"{name!r}: list write is not supported on disordered "
                "files (use the naive view)"
            )
        new_total = check_block_writes(name, entry.total_blocks, writes)
        self.invalidate(name, *(block for block, _data in writes))
        yield from self.scatter_batches(entry, name, writes)
        entry.total_blocks = new_total
        return new_total

    # ==================================================================
    # Parallel-open view
    # ==================================================================

    def op_parallel_open(self, name, worker_ports):
        yield from self.admit(probe=True)
        if not worker_ports:
            raise BridgeJobError("parallel open needs at least one worker")
        entry = self.directory.lookup(name)
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
        yield from self.admit()
        job = self._job(job_id)
        entry = job.entry
        t = len(job.worker_ports)
        # S18 double buffering: start fetching the *next* delivery's
        # stripe while this one is read and shipped to the workers.
        self.top_up(entry, entry.name, job.cursor + t, depth=t)
        delivered = 0
        for group in self.lockstep_groups(job):
            delivered += yield from self.deliver_group(job, group)
        job.cursor += t
        return delivered

    def op_parallel_write(self, job_id):
        """Collect one deposit per worker and append them in order."""
        yield from self.admit()
        job = self._job(job_id)
        entry = job.entry
        if entry.disordered:
            raise BridgeJobError(
                f"{entry.name!r}: parallel write is not supported on "
                "disordered files (use the naive view)"
            )
        deposits = yield from self.collect_deposits(job)
        base = entry.total_blocks
        yield from self.append_groups(entry, base, deposits)
        entry.total_blocks = base + len(deposits)
        job.cursor = entry.total_blocks
        return entry.total_blocks

    def op_parallel_close(self, job_id):
        yield from self.admit()
        self._job(job_id)
        del self._jobs[job_id]
        return None

    # ==================================================================
    # Request stages: admission, cache, fan-out, landing
    # ==================================================================

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
        directory or EFS work for a refused request.

        Returns what the handler yields from: with no control, probe or
        batch, the one constant decode charge (a 1-tuple, so a naive
        block op builds no generator here), else :meth:`_admitted`."""
        if self.admission is None and not probe and not batch:
            return self._plain_admission
        return self._admitted(probe, batch)

    def _admitted(self, probe: bool, batch: int):
        control = self.admission
        if control is not None:
            yield from control.admit(self, self._active_request)
        cpu = self.config.cpu
        yield Timeout(
            cpu.bridge_request + (cpu.bridge_directory_probe if probe else 0)
            + cpu.bridge_batch_name * batch
        )

    def probe(self, name: str, block: Optional[int] = None):
        """Synchronous Bridge-cache lookup ahead of request admission
        (run only when the cache is on).

        ``block=None`` probes at the sequential cursor (advancing it on
        a hit).  Returns a complete hit :class:`Response` — charged at
        ``bridge_cache_hit`` instead of the full request decode — or
        ``None`` to fall through to the full request path.  Misses also
        feed the S18 stream detector.
        """
        entry = self.directory.lookup(name)
        sequential = block is None
        target = self._cursors.get(name, 0) if sequential else block
        if 0 <= target < entry.total_blocks:
            if self._prefetcher is not None:
                self._prefetcher.observe(entry, name, target)
            data = self._cache.lookup(name, target)
            if data is not None:
                if sequential:
                    self._cursors[name] = target + 1
                yield Timeout(self.config.cpu.bridge_cache_hit)
                value = (target, data) if sequential else data
                return Response(value=value, size=len(data))
        return None

    def invalidate(self, name: str, *blocks: int) -> None:
        """Invalidate-before-issue: drop cached copies *before* the EFS
        write leaves so an in-flight read of the old value can never
        install stale data later."""
        if self._cache is not None:
            for block in blocks:
                self._cache.invalidate_block(name, block)

    def evict_file(self, name: str) -> None:
        """Full per-file eviction (create-over-delete, delete)."""
        if self._cache is not None:
            self._cache.invalidate_file(name)
        if self._prefetcher is not None:
            self._prefetcher.forget(name)

    def cached_or_inflight(self, name: str, block: int):
        """Cache lookup that also waits on an in-flight prefetch instead
        of duplicating its EFS request (parallel delivery path)."""
        if self._cache is None:
            return None
        data = self._cache.lookup(name, block)
        if data is None and self._prefetcher is not None:
            signal = self._prefetcher.inflight_signal(name, block)
            if signal is not None:
                data = yield signal
                if data is not None:
                    self._cache.mark_used(name, block)
        return data

    def fanout(self, calls):
        """Windowed gather: every EFS message the server sends leaves
        through here, at most ``bridge_fanout_limit`` in flight (0 =
        unbounded, the seed default).  Returns :func:`gather`'s generator."""
        return gather(self.node, calls,
                      self.config.bridge_fanout_limit or None)

    def spawn_staged(self, calls):
        """Paper create behavior (section 4.5): initiation and
        termination are sequential, the LFS work itself overlaps."""
        cells = []
        for port, method, args in calls:
            yield Timeout(self.config.cpu.bridge_create_dispatch)
            cell = ReplyCell(self.node)
            self.node.send(port, Request(method, args, cell))
            cells.append(cell)
        for cell in cells:
            response = yield cell
            if response.error is not None:
                raise response.error

    def spawn_tree(self, entries, relay_method: str):
        """Improved create behavior: one message to the first relay,
        which fans out through an embedded binary tree (O(log p))."""
        yield Timeout(self.config.cpu.bridge_create_dispatch)
        results = yield from self.fanout(
            [(entries[0]["relay_port"], "relay",
              {"entries": entries, "relay_method": relay_method}, 0)],
        )
        return results[0]

    def read_call(self, entry: BridgeFileEntry, name: str, slot: int,
                  local: int):
        """One single-block EFS read leg, hint-threaded."""
        return (self._slot_port(entry, slot), "read",
                {"file_number": entry.efs_file_numbers[slot],
                 "block_number": local,
                 "hint": self._hints.get((name, slot))}, 0)

    def write_call(self, entry: BridgeFileEntry, slot: int, local: int,
                   data: bytes, hint=None):
        """One single-block EFS write leg."""
        return (self._slot_port(entry, slot), "write",
                {"file_number": entry.efs_file_numbers[slot],
                 "block_number": local,
                 "data": data,
                 "hint": hint}, BLOCK_SIZE)

    def demand_read(self, entry: BridgeFileEntry, name: str, block: int):
        """The detached half of a naive-view read whose synchronous
        probe missed, as a generator: with the cache off, the read from
        the source itself, else :meth:`_demand_fill`."""
        if self._cache is None:
            return self._read_source(entry, name, block)
        return self._demand_fill(entry, name, block)

    def _demand_fill(self, entry: BridgeFileEntry, name: str, block: int):
        """Re-check the cache (a prefetch may have landed meanwhile),
        wait on an in-flight fetch instead of duplicating its EFS
        request, otherwise read from the source and install the result
        under the generation guard."""
        data = self._cache.peek(name, block)
        if data is not None:
            return data
        if self._prefetcher is not None:
            signal = self._prefetcher.inflight_signal(name, block)
            if signal is not None:
                data = yield signal
                if data is not None:
                    self._cache.mark_used(name, block)
                    return data
                # The fetch was dropped (stale or errored): fall through
                # to a direct read so the demand path sees real state.
        generation = self._cache.generation(name)
        data = yield from self._read_source(entry, name, block)
        if self._cache.generation(name) == generation:
            self._cache.install(name, block, data)
        return data

    def _read_source(self, entry: BridgeFileEntry, name: str, block: int):
        """One single-block read from the block's constituent."""
        slot, local = entry.locate_block(block)
        results = yield from self.fanout(
            [self.read_call(entry, name, slot, local)]
        )
        self._landed(entry, name, slot, block, results[0])
        return results[0].data

    def _landed(self, entry: BridgeFileEntry, name: str, slot: int,
                block: int, result) -> None:
        """A single-block read came back: thread its next-block disk
        address into the hint table (the "optimized path" of section
        4.1) and remember where the block itself lives."""
        self._hints[(name, slot)] = result.next_addr
        self.learn(entry, block, result.addr)

    def learn(self, entry: BridgeFileEntry, block: int, addr: int) -> None:
        """Remember where an EFS result said a global block lives, for
        :meth:`commit_write`'s hint.  Only while this server's directory
        holds ``entry`` itself: a job still pinned here after the name
        migrated out (``migrated_out``), or a read that was in flight
        across a delete, must not re-grow a departed file's table."""
        if self._cache is not None and self.directory.holds(entry):
            self._cache.remember(entry.name, block, addr)

    def place(self, entry: BridgeFileEntry, block: int) -> Tuple[int, int]:
        """Block placement: strict interleave, or the section-3
        disordered scatter (any slot will do) on append."""
        if entry.disordered and block == len(entry.block_map):
            rng = self.node.machine.sim.random.stream("bridge.disorder")
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
        cache = self._cache
        hint = cache.address_of(name, block) if cache is not None else None
        results = yield from self.fanout(
            [self.write_call(entry, slot, local, data, hint)]
        )
        self.learn(entry, block, results[0].addr)
        return results[0]

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
        slots = sorted(per_slot)
        calls = [
            (self._slot_port(entry, slot), "read_blocks",
             {"file_number": entry.efs_file_numbers[slot],
              "block_numbers": sorted(per_slot[slot]),
              "hint": self._hints.get((name, slot))}, 0)
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
                self._hints[(name, slot)] = batch.results[-1].next_addr
        return by_location

    def scatter_batches(self, entry: BridgeFileEntry, name: str, writes):
        """One batched ``write_blocks`` per touched LFS."""
        interleave = entry.interleave
        per_slot: Dict[int, List[Tuple[int, bytes]]] = {}
        for block, data in writes:
            slot, local = interleave.locate(block)
            per_slot.setdefault(slot, []).append((local, data))
        slots = sorted(per_slot)
        calls = [
            (self._slot_port(entry, slot), "write_blocks",
             {"file_number": entry.efs_file_numbers[slot],
              "writes": per_slot[slot],
              "hint": self._hints.get((name, slot))},
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
                    self.node.send(
                        job.worker_ports[index],
                        BlockDelivery(job.job_id, index, block, None, eof=True),
                    )
            if group:
                yield group

    def deliver_group(self, job, group):
        """Deliver one lock-step group: cache/in-flight hits ship
        immediately; the misses fan out as one gather."""
        entry = job.entry
        delivered = 0
        pending = []
        for index, block in group:
            data = yield from self.cached_or_inflight(entry.name, block)
            if data is not None:
                if self.config.cpu.bridge_cache_hit:
                    yield Timeout(self.config.cpu.bridge_cache_hit)
                self.node.send(
                    job.worker_ports[index],
                    BlockDelivery(job.job_id, index, block, data),
                    size=len(data),
                )
                delivered += 1
            else:
                pending.append((index, block))
        if not pending:
            return delivered
        located = [entry.locate_block(block) for _index, block in pending]
        results = yield from self.fanout(
            [self.read_call(entry, entry.name, slot, local)
             for slot, local in located]
        )
        for (index, block), (slot, _local), result in zip(
            pending, located, results
        ):
            self._landed(entry, entry.name, slot, block, result)
            self.node.send(
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

    def top_up(self, entry: BridgeFileEntry, name: str, frontier: int,
               depth: int) -> None:
        """S18 double buffering: start fetching the next stripe while
        the current one is read and shipped.

        Skipped for names this partition migrated out (S22): a parallel
        job still pinned here may keep reading through the shared LFS
        set, but nothing of the departed file may be re-installed into
        this cache — the new owner's writes would never invalidate it.
        """
        if self._prefetcher is not None and name not in self.migrated_out:
            self._prefetcher.top_up(entry, name, frontier, depth=depth)

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
        port = self._port_on_node.get(node_index)
        if port is None:
            raise BridgeBadRequestError(f"no LFS on node {node_index}")
        return port

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
