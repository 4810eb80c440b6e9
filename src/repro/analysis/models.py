"""The paper's published numbers and cost formulas.

Table 2 gives closed-form costs for the basic operations; Tables 3 and 4
give the copy and sort tool measurements (10 MB file, p in {2..32}).
The Table 2-4 benches write these values beside their measurements,
in the one document each bench prints and writes, and the fitting
helpers extract comparable coefficients from simulated data.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import DATA_BYTES_PER_BLOCK, DEFAULT_CONFIG
from repro.core.ring import ModuloRing
from repro.storage.parameters import DEFAULT_ACCESS_TIME

# ---------------------------------------------------------------------------
# Table 2: Bridge operations (milliseconds; n = file size in blocks)
# ---------------------------------------------------------------------------


def table2_delete_ms(file_blocks: int, width: int) -> float:
    """Delete: 20 * filesize / p ms."""
    return 20.0 * file_blocks / width


def table2_create_ms(width: int) -> float:
    """Create: 145 + 17.5 p ms."""
    return 145.0 + 17.5 * width


def table2_open_ms() -> float:
    """Open: 80 ms, independent of p."""
    return 80.0


def table2_read_ms(file_blocks: int, width: int) -> float:
    """Sequential read, amortized per block: 9.0 + 500 p / filesize ms."""
    return 9.0 + 500.0 * width / file_blocks


def table2_write_ms() -> float:
    """Sequential write, per block: 31 ms."""
    return 31.0


# ---------------------------------------------------------------------------
# Table 3: copy tool, 10 Mbyte file
# ---------------------------------------------------------------------------

#: Processors -> copy time in seconds (paper Table 3).
PAPER_TABLE3_COPY_SECONDS: Dict[int, float] = {
    2: 311.6,
    4: 156.0,
    8: 79.3,
    16: 41.0,
    32: 21.6,
}

#: The figure beside Table 3 peaks at 475 records/second (p = 32).
PAPER_COPY_PEAK_RECORDS_PER_SECOND = 475.0

# ---------------------------------------------------------------------------
# Table 4: merge sort tool, 10 Mbyte file
# ---------------------------------------------------------------------------

#: Processors -> (local sort minutes, merge minutes, total minutes).
PAPER_TABLE4_SORT_MINUTES: Dict[int, Tuple[float, float, float]] = {
    2: (350.0, 17.0, 367.0),
    4: (98.0, 16.0, 111.0),
    8: (24.0, 11.0, 35.0),
    16: (6.0, 7.0, 13.0),
    32: (0.67, 4.45, 5.12),
}

#: The figure beside Table 4 peaks at 35 records/second (p = 32).
PAPER_SORT_PEAK_RECORDS_PER_SECOND = 35.0

#: The evaluation file: 10 MB of 960-byte records (section 5).
PAPER_FILE_BLOCKS = 10 * 1024 * 1024 // 960  # 10 922 full blocks

#: The in-core sort buffer (section 5.2).
PAPER_SORT_BUFFER_RECORDS = 512


# ---------------------------------------------------------------------------
# Noncontiguous-access message model (S17)
# ---------------------------------------------------------------------------
#
# The list-I/O argument is purely combinatorial, so it has an exact
# analytic form the simulator must reproduce message-for-message:
#
# * naive:     one EFS request per access              -> N
# * list I/O:  one batched EFS request per touched LFS -> |slots(blocks)|
# * two-phase: one aggregator (and one batched EFS request) per touched
#   slot, one descriptor message per aggregator, and one redistribution
#   message per (worker, slot) pair with traffic between them.


def touched_slots(blocks: Sequence[int], width: int) -> int:
    """Distinct LFS slots a set of global blocks lands on."""
    if width < 1:
        raise ValueError("width must be >= 1")
    return len({block % width for block in blocks})


def naive_rpc_count(blocks: Sequence[int]) -> int:
    """Per-block access: one Bridge->EFS request per access (dups pay)."""
    return len(blocks)


def listio_rpc_count(blocks: Sequence[int], width: int) -> int:
    """List I/O: one batched EFS request per touched LFS, at most p."""
    return touched_slots(blocks, width)


def twophase_message_counts(
    per_worker_blocks: Sequence[Sequence[int]], width: int
) -> Dict[str, int]:
    """Exact message counts for a two-phase collective operation.

    Returns ``efs_requests`` (= ``aggregators``), ``exchange_messages``
    (one descriptor per aggregator) and ``redistribution_messages`` (one
    per (worker, slot) pair with data) — the same fields
    :class:`repro.collective.CollectiveStats` reports, so model and
    measurement can be compared for equality, not just shape.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    slots = set()
    pairs = set()
    for worker, blocks in enumerate(per_worker_blocks):
        for block in blocks:
            slot = block % width
            slots.add(slot)
            pairs.add((worker, slot))
    return {
        "aggregators": len(slots),
        "efs_requests": len(slots),
        "exchange_messages": len(slots),
        "redistribution_messages": len(pairs),
    }


# ---------------------------------------------------------------------------
# Pipelined naive read (S18)
# ---------------------------------------------------------------------------
#
# With the Bridge block cache and striped read-ahead enabled, the
# naive-view hot loop turns client-bound: every steady-state read is a
# cache hit whose cost is pure message plus hit-CPU time — an exact
# closed form the simulator reproduces delta-for-delta (each successive
# block completes exactly ``pipelined_hit_seconds`` after the previous
# one once the stream is recognized and the pipeline is primed).


def pipelined_hit_seconds(config=None) -> float:
    """Exact steady-state latency of one cached naive-view read.

    Request message to the Bridge node + cache-hit CPU + response
    message carrying one block's 960-byte data area.  No directory
    consult, no EFS traffic — that is the whole point of the pipeline.
    """
    cfg = config or DEFAULT_CONFIG
    return (
        cfg.messages.remote_latency          # client -> bridge request
        + cfg.cpu.bridge_cache_hit           # hash probe + LRU touch
        + cfg.messages.remote_latency        # bridge -> client response
        + DATA_BYTES_PER_BLOCK * cfg.messages.per_byte
    )


def pipelined_supply_seconds_per_block(config=None) -> float:
    """Average per-block service time of one LFS streaming sequentially
    to the prefetcher: one track-buffer disk read amortized over
    ``efs_track_buffer_blocks``, per-request EFS CPU, and the
    request/response messages of the (per-slot serial) fetch chain."""
    cfg = config or DEFAULT_CONFIG
    track = max(1, cfg.efs_track_buffer_blocks)
    return (
        DEFAULT_ACCESS_TIME / track
        + cfg.cpu.efs_request
        + cfg.cpu.efs_cache_hit
        + 2 * cfg.messages.remote_latency
        + DATA_BYTES_PER_BLOCK * cfg.messages.per_byte
    )


def pipelined_read_seconds(file_blocks: int, width: int,
                           config=None) -> float:
    """Closed-form time for an n-block pipelined sequential read: every
    block costs the slower of the client hit path and the per-LFS supply
    rate spread over p constituents (exact in the client-bound regime,
    which holds for the paper configuration at every p >= 1)."""
    if file_blocks < 0:
        raise ValueError("file_blocks must be >= 0")
    hit = pipelined_hit_seconds(config)
    supply = pipelined_supply_seconds_per_block(config) / width
    return file_blocks * max(hit, supply)


# ---------------------------------------------------------------------------
# S19: per-component attribution of the naive read path
# ---------------------------------------------------------------------------
#
# The critical-path analyzer (repro.obs.critical) partitions a measured
# span tree; this is the closed-form prediction it is cross-checked
# against.  One steady-state naive-view sequential read costs, per block:
#
#   net:    4 one-way remote messages (request/response on both hops)
#           + 2 block payloads (EFS->bridge, bridge->client);
#   server: bridge request CPU + EFS request CPU
#           (+ EFS cache-hit CPU on track-buffered blocks);
#   disk:   one device access per track when the stream misses the EFS
#           cache (``resident=False``), amortized over the track.


def naive_read_components(
    file_blocks: int,
    config=None,
    resident: bool = True,
) -> Dict[str, float]:
    """Predicted per-category seconds for ``file_blocks`` steady-state
    naive reads.  ``resident=True`` models a file that fits in the EFS
    caches (every read is a track-buffer hit, no disk time); ``False``
    models a cold stream paying one device access per track."""
    cfg = config or DEFAULT_CONFIG
    track = max(1, cfg.efs_track_buffer_blocks)
    per_block_net = (
        4 * cfg.messages.remote_latency
        + 2 * DATA_BYTES_PER_BLOCK * cfg.messages.per_byte
    )
    cold = 0.0 if resident else file_blocks / track
    warm = file_blocks - cold
    return {
        "client": 0.0,
        "net": file_blocks * per_block_net,
        "server": (
            file_blocks * (cfg.cpu.bridge_request + cfg.cpu.efs_request)
            + warm * cfg.cpu.efs_cache_hit
        ),
        "disk": cold * DEFAULT_ACCESS_TIME,
        "queue": 0.0,
    }


def naive_read_seconds_per_block(config=None, resident: bool = True) -> float:
    """Total of :func:`naive_read_components` for one block."""
    return sum(naive_read_components(
        1, config=config, resident=resident
    ).values())


# ---------------------------------------------------------------------------
# S20: per-partition cost model (hash-partitioned Bridge fabric)
# ---------------------------------------------------------------------------


def partition_load(names: Sequence[str], servers: int,
                   requests: Optional[Dict[str, int]] = None,
                   ring=None) -> List[int]:
    """Exact per-partition request counts under the production routing.

    ``requests`` optionally weights each name by its request count
    (weight 1 per name otherwise).  ``ring`` is any S22 ring object
    (:mod:`repro.elastic.ring`); the default is the rigid fabric's
    mod-k ring, so these counts are exact, not estimates — the model
    part is using them to predict the fabric's behavior without
    running it.
    """
    if ring is None:
        ring = ModuloRing(servers)
    elif ring.partitions != servers:
        raise ValueError(
            f"ring has {ring.partitions} partitions, expected {servers}"
        )
    loads = [0] * servers
    weights = requests or {}
    for name in names:
        loads[ring.partition_of(name)] += weights.get(name, 1)
    return loads


def fabric_speedup_bound(names: Sequence[str], servers: int,
                         requests: Optional[Dict[str, int]] = None,
                         ring=None) -> float:
    """Upper bound on central-server relief from partitioning.

    Total server work divided by the hottest partition's share: the
    server stage of the aggregate makespan improves by at most this
    factor (perfect balance gives ``servers``; one hot name gives 1.0).
    Disks and the interconnect may bottleneck earlier, so measured
    speedups sit at or below this bound.
    """
    loads = partition_load(names, servers, requests, ring=ring)
    peak = max(loads) if loads else 0
    return (sum(loads) / peak) if peak else float(servers)


# ---------------------------------------------------------------------------
# S23: batched metadata RPC model
# ---------------------------------------------------------------------------
#
# A batched metadata op (mopen/mstat/mcreate/mdelete) buckets its names
# by the live ring and issues one RPC per window-sized sub-batch per
# touched partition.  The count is purely combinatorial, so — like the
# S17 list-I/O model — the simulator must reproduce it RPC-for-RPC: the
# metadata bench asserts the observed server request counters equal
# these formulas exactly.


def metadata_partition_buckets(names: Sequence[str],
                               partitions: int) -> Dict[int, int]:
    """Per-partition name counts under the production routing: the
    rigid mod-k ring of a freshly built fabric of ``partitions``
    servers.  Only touched partitions appear as keys.
    """
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    ring = ModuloRing(partitions)
    buckets: Dict[int, int] = {}
    for name in names:
        partition = ring.partition_of(name)
        buckets[partition] = buckets.get(partition, 0) + 1
    return buckets


def batched_rpc_count(names: Sequence[str], partitions: int,
                      window: int = 0) -> int:
    """Exact RPC count of one batched metadata op.

    ``sum(ceil(k_i / window))`` over the touched partitions' name counts
    ``k_i``; ``window = 0`` (an unbounded ``bridge_fanout_limit``) means
    one RPC per touched partition.
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    buckets = metadata_partition_buckets(names, partitions)
    if window == 0:
        return len(buckets)
    return sum(math.ceil(count / window) for count in buckets.values())


# ---------------------------------------------------------------------------
# Queueing models (S21): predicted waits for the traffic cross-check
# ---------------------------------------------------------------------------


def utilization(arrival_rate: float, service_rate: float) -> float:
    """Offered utilization rho = lambda / mu (may exceed 1 under overload)."""
    if service_rate <= 0:
        raise ValueError(f"service rate must be positive, got {service_rate}")
    if arrival_rate < 0:
        raise ValueError(f"arrival rate must be >= 0, got {arrival_rate}")
    return arrival_rate / service_rate


def mm1_wait_seconds(arrival_rate: float, service_rate: float) -> float:
    """Mean M/M/1 queueing delay (time waiting, excluding service).

    ``Wq = rho / (mu - lambda)``.  Infinite at or past saturation —
    exactly what an open-loop driver observes as unbounded queue growth.
    """
    rho = utilization(arrival_rate, service_rate)
    if rho >= 1.0:
        return math.inf
    return rho / (service_rate - arrival_rate)


def md1_wait_seconds(arrival_rate: float, service_rate: float) -> float:
    """Mean M/D/1 queueing delay (Pollaczek-Khinchine, deterministic
    service): ``Wq = rho / (2 mu (1 - rho))`` — half the M/M/1 wait.

    The Bridge Server's per-request CPU charge is a constant, so its
    admission queue is closer to M/D/1 than M/M/1; the traffic tests
    check the measured queue delay lands between the two predictions'
    neighborhood.
    """
    rho = utilization(arrival_rate, service_rate)
    if rho >= 1.0:
        return math.inf
    return rho / (2.0 * service_rate * (1.0 - rho))


# ---------------------------------------------------------------------------
# Fitting helpers
# ---------------------------------------------------------------------------


def fit_line(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit ``y = intercept + slope * x``."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all x equal")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return mean_y - slope * mean_x, slope


def speedup_series(times: Dict[int, float]) -> Dict[int, float]:
    """Speedup relative to the smallest configuration in the series."""
    if not times:
        return {}
    base_p = min(times)
    base = times[base_p]
    return {p: base / t if t > 0 else math.inf for p, t in sorted(times.items())}

