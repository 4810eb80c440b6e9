"""Central cost-model configuration for the simulated Butterfly.

Every timing constant the simulation charges lives here, with the
calibration rationale.  The paper (section 4.4) simulates its disks in RAM
with a fixed 15 ms sleep approximating a CDC Wren-class drive; the message
and CPU costs below are calibrated so that the *measured* Table 2 costs of
our reproduction land near the published formulas:

==========  =====================  =========================================
Operation   Paper (Table 2)        Where the cost comes from here
==========  =====================  =========================================
Read        9.0 + 500 p/n ms       track-buffered disk reads: one 15 ms miss
                                   per track + cheap buffer hits, plus EFS
                                   request CPU; per-LFS startup reads are
                                   amortized over n blocks
Write       31 ms                  write-through data block (15 ms) + tail
                                   pointer update (15 ms) + request CPU
Open        80 ms                  Bridge directory probe + parallel per-LFS
                                   path setup
Create      145 + 17.5 p ms        sequential per-LFS initiation on the
                                   Bridge Server, parallel LFS work
Delete      20 n/p ms              sequential per-block traversal-and-free
                                   on each LFS, all LFS in parallel
==========  =====================  =========================================

These are *shape* calibrations: our substrate is a simulator, not the
authors' Butterfly, so we target who-wins/what-scales rather than absolute
numbers (see EXPERIMENTS.md for paper-vs-measured).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

MS = 1e-3
US = 1e-6

#: Bytes per raw device block (paper section 4.3).
BLOCK_SIZE = 1024

#: Bytes of the original Cronus EFS block header.
EFS_HEADER_SIZE = 24

#: Additional Bridge header bytes taken from the data area (section 4.3).
BRIDGE_HEADER_SIZE = 40

#: Usable data bytes per block: 1024 - 24 - 40 = 960 (section 4.3).
DATA_BYTES_PER_BLOCK = BLOCK_SIZE - EFS_HEADER_SIZE - BRIDGE_HEADER_SIZE


@dataclass(frozen=True)
class MessageCosts:
    """Latency of message passing between simulated processes.

    On the Butterfly, messages are atomic queues in shared memory: cheap,
    and nearly distance-independent.  ``per_byte`` models the copy cost of
    a block transfer through the switch.  A message costs the local or
    remote latency plus ``size * per_byte``
    (:meth:`repro.machine.network.ButterflyNetwork.send` prices it).
    """

    local_latency: float = 0.1 * MS
    remote_latency: float = 0.5 * MS
    per_byte: float = 0.25 * US  # ~4 MB/s block-copy path


@dataclass(frozen=True)
class CpuCosts:
    """Per-request CPU charges for the 1988-era (~0.5 MIPS) node processors."""

    #: EFS request decode, directory hash, cache lookup.
    efs_request: float = 1.0 * MS
    #: Following one link while walking a file's block list (cache hit).
    efs_link_step: float = 0.2 * MS
    #: Serving a block read out of the cache/track buffer.
    efs_cache_hit: float = 1.0 * MS
    #: Free-list bookkeeping when allocating or freeing one block.
    efs_free_op: float = 3.0 * MS
    #: Bridge Server request decode + directory consult.
    bridge_request: float = 1.0 * MS
    #: Per-LFS sequential initiation work during Create (section 4.5 notes
    #: initiation/termination are sequential; calibrated to the 17.5 ms/LFS
    #: slope of Table 2).
    bridge_create_dispatch: float = 15.0 * MS
    #: Bridge directory probe during Open/Create (hash + entry fetch from
    #: the server's own metadata storage; calibrated so Open lands near
    #: Table 2's 80 ms).
    bridge_directory_probe: float = 70.0 * MS
    #: Persistent Bridge directory update (Create/Delete write the entry
    #: through to the server's metadata storage; two device writes).
    bridge_directory_update: float = 60.0 * MS
    #: Serving a naive-view block out of the Bridge Server's own block
    #: cache (S18): a hash probe and an LRU touch, no EFS message and no
    #: directory/metadata work — charged *instead of* ``bridge_request``
    #: on the hit path.
    bridge_cache_hit: float = 0.2 * MS
    #: Refusing a request at the admission stage (S21): decode the
    #: envelope, consult the policy, ship the typed error — no directory
    #: consult, no EFS traffic.  Cheap by design: shedding only protects
    #: the server if a reject costs far less than full service.
    bridge_fast_reject: float = 0.2 * MS
    #: Redirecting a misrouted request during an S22 live resize: decode
    #: the envelope, probe the forwarding table, re-send.  Only charged
    #: inside a migration's double-read window — never with elasticity
    #: off, so the seed event sequence is untouched.
    bridge_forward: float = 0.3 * MS
    #: Per-name work inside an S23 batched metadata op (``mopen`` /
    #: ``mstat`` / ``mcreate`` / ``mdelete``): one directory hash and
    #: entry touch.  A batch pays ``bridge_request`` and the
    #: ``bridge_directory_probe`` *once* — a single sweep of the server's
    #: metadata storage fetches every requested entry — so per-name cost
    #: drops from the full 71 ms decode+probe to this charge.  Never
    #: charged on the singleton paths, so the seed event sequence is
    #: untouched.
    bridge_batch_name: float = 2.0 * MS
    #: Tool worker per-record handling (format/compare/copy).
    tool_record: float = 1.0 * MS
    #: One key comparison during in-core sorting.
    compare: float = 40.0 * US
    #: Cost of creating a subprocess on a (possibly remote) node.
    spawn: float = 5.0 * MS


@dataclass(frozen=True)
class SystemConfig:
    """Aggregate configuration handed to the system builders."""

    messages: MessageCosts = field(default_factory=MessageCosts)
    cpu: CpuCosts = field(default_factory=CpuCosts)
    #: Blocks kept by the EFS block cache (per LFS instance).
    efs_cache_blocks: int = 64
    #: Consecutive blocks pulled in by one full-track read (section 4.3's
    #: full-track buffering; calibrated so sequential reads average ~9 ms).
    efs_track_buffer_blocks: int = 4
    #: In-core sort buffer, in records (paper section 5.2: c = 512).
    sort_buffer_records: int = 512
    #: Use an embedded binary tree for Create start-up/completion messages
    #: (section 4.5 suggests this as an improvement; off = paper behavior).
    create_uses_tree: bool = False
    #: Fan-out window for the Bridge Server's batched list-I/O gather: at
    #: most this many per-LFS batch requests are outstanding at once
    #: (0 = unbounded, fine at paper scale; bound it when p grows past
    #: what one server's mailbox should absorb in a burst).
    bridge_fanout_limit: int = 0  # 0 = unbounded
    #: Write-behind in the LFS (section 6 assumes read-ahead *and*
    #: write-behind for the naive view to become compute-bound).  Off by
    #: default: the measured prototype's 31 ms writes are write-through.
    #: When on, appends land in the cache and reach the device on eviction
    #: or flush; durability is traded for latency, exactly as in a real
    #: write-behind file system.
    efs_write_behind: bool = False
    #: S18 striped read-ahead window, in stripes: once the Bridge Server
    #: recognizes a sequential stream it keeps ``prefetch_window * p``
    #: blocks in flight or cached ahead of the reader (window 1 = one
    #: block per constituent, the geometry's natural unit).  0 disables
    #: read-ahead entirely — the seed configuration, reproducing the
    #: paper's serial naive path exactly.
    prefetch_window: int = 0
    #: Capacity of the Bridge Server's block cache, in blocks.  0 disables
    #: the cache (seed behavior) unless ``prefetch_window > 0``, in which
    #: case the builders auto-size it to ``4 * prefetch_window * p``.
    bridge_cache_blocks: int = 0

    def with_changes(self, **changes) -> "SystemConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)


DEFAULT_CONFIG = SystemConfig()
