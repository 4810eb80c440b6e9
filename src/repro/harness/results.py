"""Result records for the reproduction experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class Table2Measurement:
    """Measured basic-operation costs for one configuration (ms)."""

    p: int
    file_blocks: int
    open_ms: float
    read_ms_per_block: float
    write_ms_per_block: float
    create_ms: float
    delete_ms_total: float

    @property
    def delete_ms_per_block_per_lfs(self) -> float:
        blocks_per_lfs = max(1, self.file_blocks // self.p)
        return self.delete_ms_total / blocks_per_lfs


@dataclass
class CopyRun:
    """One copy-tool configuration (Table 3 row)."""

    p: int
    blocks: int
    elapsed: float
    paper_seconds: Optional[float] = None

    @property
    def records_per_second(self) -> float:
        return self.blocks / self.elapsed if self.elapsed > 0 else 0.0


@dataclass
class SortRun:
    """One sort-tool configuration (Table 4 row)."""

    p: int
    records: int
    local_sort_seconds: float
    merge_seconds: float
    total_seconds: float
    paper_minutes: Optional[Tuple[float, float, float]] = None

    @property
    def records_per_second(self) -> float:
        return self.records / self.total_seconds if self.total_seconds > 0 else 0.0


@dataclass
class ViewsRun:
    """Throughput of the three user views reading the same file."""

    p: int
    blocks: int
    naive_seconds: float
    parallel_open_seconds: float
    tool_seconds: float
    virtual_parallel_seconds: float  # t = 2p, the lock-step penalty case

    def as_throughput(self) -> Dict[str, float]:
        return {
            "naive": self.blocks / self.naive_seconds,
            "parallel-open": self.blocks / self.parallel_open_seconds,
            "tool": self.blocks / self.tool_seconds,
            "virtual(t=2p)": self.blocks / self.virtual_parallel_seconds,
        }


@dataclass
class StripingRun:
    """Copy/read comparison: Bridge tool vs striping vs one disk."""

    devices: int
    blocks: int
    bridge_tool_seconds: float
    striped_seconds: float
    sequential_seconds: float


@dataclass
class TokenSaturationRun:
    """One pair-merge at a given output width."""

    width: int
    records: int
    elapsed: float

    @property
    def records_per_second(self) -> float:
        return self.records / self.elapsed if self.elapsed > 0 else 0.0


@dataclass
class CreateTreeRun:
    """Create latency: sequential vs tree dispatch (plus, since S23,
    the per-file cost of one batched ``mcreate`` amortizing the fixed
    per-request charges over the whole batch)."""

    p: int
    sequential_ms: float
    tree_ms: float
    batched_per_file_ms: float = 0.0


@dataclass
class CollectiveRun:
    """Noncontiguous-access ablation: naive vs list I/O vs two-phase (S17).

    ``t`` workers each hold a noncontiguous read pattern over one shared
    interleaved file.  The three arms move the same bytes; only the
    request structure differs.  EFS request counts are measured as
    ``requests_served`` deltas and paired with the analytic model's
    predictions so tests can assert exact equality.
    """

    p: int
    workers: int
    blocks: int  # file size
    accesses: int  # total accesses across workers (dups included)
    distinct_blocks: int
    pattern: str
    naive_seconds: float
    naive_efs_requests: int
    listio_seconds: float
    listio_efs_requests: int
    twophase_seconds: float
    twophase_efs_requests: int
    exchange_messages: int
    redistribution_messages: int
    model_naive_requests: int
    model_listio_requests: int
    model_twophase_requests: int
    model_redistribution_messages: int
    content_ok: bool

    @property
    def model_exact(self) -> bool:
        """Measured message counts equal to the analytic model's."""
        return (
            self.naive_efs_requests == self.model_naive_requests
            and self.listio_efs_requests == self.model_listio_requests
            and self.twophase_efs_requests == self.model_twophase_requests
            and self.redistribution_messages
            == self.model_redistribution_messages
        )


@dataclass
class RedundancyRun:
    """One redundancy scheme (none/mirror/parity) through the full
    fail -> degraded -> repair -> rebuild lifecycle (S16)."""

    scheme: str
    p: int
    blocks: int
    storage_blocks: int
    write_device_ops: int  # device writes issued while writing the file
    healthy_read_s_per_block: float
    degraded_read_s_per_block: Optional[float]  # None: file lost
    degraded_reconstructions: int
    survived: bool  # single failure survived
    content_ok: bool  # degraded reads byte-identical to healthy ones
    rebuild_seconds: Optional[float]  # None: no rebuild needed/possible
    rebuild_blocks: int
    fsck_clean: bool

    @property
    def storage_factor(self) -> float:
        return self.storage_blocks / self.blocks if self.blocks else 0.0

    @property
    def write_ops_per_block(self) -> float:
        return self.write_device_ops / self.blocks if self.blocks else 0.0


@dataclass
class PrefetchRun:
    """One S18 caching/read-ahead arm streaming one file (two passes).

    All arms read the same file with the same client loop; only the
    Bridge Server's cache/prefetch configuration differs.  ``elapsed``
    is the first (cold) sequential pass, ``repeat_seconds`` the second
    pass over the same file — the pass that isolates pure cache value
    when read-ahead is off.
    """

    arm: str  # "off", "cache", "window-1", ...
    p: int
    blocks: int
    prefetch_window: int
    cache_blocks: int
    elapsed: float
    repeat_seconds: float
    baseline_seconds: float  # the cache-off arm's cold pass
    content_ok: bool  # both passes byte-identical to the off arm
    model_seconds: Optional[float]  # closed-form pipelined prediction
    hits: int = 0
    misses: int = 0
    prefetch_issued: int = 0
    prefetch_used: int = 0
    prefetch_wasted: int = 0
    invalidations: int = 0

    @property
    def speedup(self) -> float:
        return self.baseline_seconds / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def repeat_speedup(self) -> float:
        return (
            self.baseline_seconds / self.repeat_seconds
            if self.repeat_seconds > 0 else 0.0
        )

    @property
    def ms_per_block(self) -> float:
        return 1000.0 * self.elapsed / self.blocks if self.blocks else 0.0


@dataclass
class ObsRun:
    """One observability experiment (S19): the naive read path measured
    by the critical-path analyzer and cross-checked against the exact
    cost model."""

    p: int
    blocks: int
    ops: int  # seq_read root spans analyzed
    latency_seconds: float  # summed root-span latency
    attribution_seconds: Dict[str, float]
    attribution_fractions: Dict[str, float]
    model_seconds: Dict[str, float]  # naive_read_components prediction
    span_count: int
    spans_dropped: int
    disk_busy_fractions: Dict[str, float]
    events_obs_off: int
    events_obs_on: int
    elapsed_obs_off: float  # final simulated clock, bare run
    elapsed_obs_on: float

    @property
    def partition_error(self) -> float:
        """|sum(attribution) - latency| / latency — zero by construction."""
        if self.latency_seconds <= 0:
            return 0.0
        return abs(
            sum(self.attribution_seconds.values()) - self.latency_seconds
        ) / self.latency_seconds

    @property
    def max_model_error(self) -> float:
        """Worst per-category relative error against the cost model."""
        worst = 0.0
        for category, predicted in self.model_seconds.items():
            if predicted <= 0:
                continue
            got = self.attribution_seconds.get(category, 0.0)
            worst = max(worst, abs(got - predicted) / predicted)
        return worst

    @property
    def event_sequence_identical(self) -> bool:
        return (
            self.events_obs_off == self.events_obs_on
            and self.elapsed_obs_off == self.elapsed_obs_on
        )


@dataclass
class TrafficRun:
    """One S21 open-loop traffic run against one admission policy arm.

    ``summary`` is the :class:`~repro.traffic.SLORecorder` dump —
    per-class offered/outcome counts and p50/p99/p999 latencies;
    ``admission`` the per-class server-side outcome counters (``None``
    for the no-policy arm); the ``queue_wait_*``/``predicted_wait_*``
    pairs are the measured-vs-M/M/1-vs-M/D/1 cross-check inputs.
    """

    policy: str
    p: int
    servers: int
    offered_rate: float  # requested arrival rate (requests/second)
    duration: float  # source window, simulated seconds
    arrival_kind: str
    offered: int  # arrivals actually generated
    summary: Dict[str, object]  # SLORecorder.summary(duration)
    admission: Optional[Dict[str, Dict[str, int]]]
    served_rate: float  # server-side admitted+completed per second
    service_rate: float  # measured per-server service capacity (req/s)
    server_utilization: float  # busiest partition's busy fraction
    queue_wait_mean: float  # measured scheduler queue delay (seconds)
    queue_wait_p99: float
    queue_peak_depth: int
    predicted_wait_mm1: float
    predicted_wait_md1: float
    makespan: float  # final simulated clock (source window + drain)
    events: int

    @property
    def goodput(self) -> float:
        return float(self.summary["goodput"])

    def class_quantile(self, cls: str, which: str) -> float:
        """Per-class latency quantile ("p50"/"p99"/"p999") from the dump."""
        return float(self.summary["classes"][cls][which])


@dataclass
class FabricSafety:
    """What :func:`~repro.harness.experiments.fabric_safety_oracle`
    returns, as the fields the S22 and S24 records share: directory
    ownership scanned against the live ring, EFS fsck, and a
    byte-compare of every file read through the fabric vs reconstructed
    directly from the LFS blocks."""

    lost: int  # catalog names in no partition directory
    misrouted: int  # names owned by a partition the ring disagrees with
    duplicated: int  # names present in more than one directory
    content_mismatched: int  # routed read-back != direct LFS reconstruction
    fsck_clean: bool

    @property
    def files_intact(self) -> bool:
        return (self.lost == 0 and self.misrouted == 0
                and self.duplicated == 0 and self.content_mismatched == 0)


@dataclass
class ElasticRun(FabricSafety):
    """One S22 resize-under-load run (grow or shrink, traffic running).

    ``phases`` maps ``"before"`` / ``"during"`` / ``"after"`` to the
    per-phase :class:`~repro.traffic.SLORecorder` summary — the
    p99-during-migration vs steady-state comparison reads straight out
    of it.  The inherited :class:`FabricSafety` fields are the
    post-resize oracle's verdict.
    """

    direction: str  # "grow" | "shrink"
    p: int
    start_servers: int
    end_servers: int
    provisioned: int
    offered_rate: float
    phase_duration: float  # arrival window per phase, simulated seconds
    files: int
    planned: int  # moves in the resize plan
    moved: int
    vanished: int
    forwarded: int  # requests redirected by the double-read window
    disruption: float  # planned moves / namespace size
    migration_seconds: float  # ring flip -> window retired
    moves_per_second: Optional[float]
    phases: Dict[str, Dict[str, object]]  # phase -> SLO summary
    makespan: float
    events: int

    def phase_quantile(self, phase: str, cls: str, which: str) -> float:
        """Per-phase per-class latency quantile from the SLO dump."""
        return float(self.phases[phase]["classes"][cls][which])

    def failed(self) -> int:
        """Hard failures summed across all three phases."""
        return sum(int(summary["failed"]) for summary in self.phases.values())


@dataclass
class MetadataRun:
    """One S23 batched-metadata ablation point (E24).

    Both arms drive the same empty-file name family through the same
    partitioned fabric — the per-name arm loops the singleton ops, the
    batched arm issues one ``m*`` call per phase — so the wall-clock
    ratio isolates the batching win and the RPC counters can be checked
    against :func:`repro.analysis.batched_rpc_count` for equality.
    """

    servers: int
    names: int
    window: int  # effective bridge_fanout_limit (0 = unbounded)
    partitions_touched: int
    model_per_name_rpcs: int
    model_batched_rpcs: int
    per_name_ms: Dict[str, float]  # op -> phase wall clock, ms
    batched_ms: Dict[str, float]
    per_name_rpcs: Dict[str, int]  # op -> observed server request delta
    batched_rpcs: Dict[str, int]
    errors: int
    content_ok: bool

    def speedup(self, op: str) -> float:
        batched = self.batched_ms[op]
        return self.per_name_ms[op] / batched if batched > 0 else float("inf")


@dataclass
class RebalanceRun(FabricSafety):
    """One S24 arm: a skewed S21 mix with the rebalancer on or watching.

    ``sweeps`` is the control loop's decision log (one dict per
    :class:`~repro.elastic.SweepRecord`: rates, imbalance, action,
    moves, cumulative per-class p99) — the off arm records the same
    trajectory with ``watch_only`` so on-vs-off isolates the policy's
    effect.  ``busy_fractions`` are the measured per-partition busy
    shares over the service window; their spread (hot minus cold) is the
    headline the E25 bench compares.  The inherited
    :class:`FabricSafety` fields are the oracle's verdict, run after
    everything drains.
    """

    active: bool  # False = watch_only (heat + sweeps, no action)
    servers: int
    p: int
    offered_rate: float
    duration: float
    files: int
    skew: float  # Zipf skew of the offered catalog
    sweeps: List[Dict[str, object]]  # SweepRecord.to_dict() per sweep
    actions: int  # sweeps that applied a new ring
    moves: int  # entries migrated across all sweeps
    arcs_shed: int
    busy_fractions: List[float]  # per-partition busy share of the window
    final_imbalance: float  # heat-map peak/mean at drain time
    route_bound_static: float  # popularity-weighted, initial ring
    route_bound_final: float  # popularity-weighted, final ring
    summary: Dict[str, object]  # SLORecorder summary over the window
    heat: Dict[str, object]  # HeatMap.snapshot at drain time
    makespan: float
    events: int

    @property
    def utilization_spread(self) -> float:
        """Hot-minus-cold busy fraction across the active partitions."""
        return max(self.busy_fractions) - min(self.busy_fractions)

    @property
    def goodput(self) -> float:
        return float(self.summary["goodput"])

    def p99(self, cls: str) -> float:
        """Final cumulative p99 for one traffic class."""
        return float(self.summary["classes"][cls]["p99"])

    def p99_trajectory(self, cls: str) -> List[float]:
        """Cumulative p99 of ``cls`` sweep by sweep (0.0 before any
        completion)."""
        return [float(sweep["p99"].get(cls, 0.0)) for sweep in self.sweeps]


@dataclass
class StorageDriverRun:
    """One E26 arm: the standard build + contended-read workload on one
    storage fabric (S25).

    Every arm runs the identical logical workload — build an interleaved
    file through the naive view, then read it back through a
    virtual-parallel job with two workers per constituent so every
    device serves two concurrent streams — and differs only in the
    ``storage=`` keyword handed to
    :class:`~repro.harness.builders.BridgeSystem`.
    ``node_*`` vectors are indexed by LFS slot.  The read-phase deltas
    (``node_read_ops`` / ``node_read_busy``) isolate the contended read;
    the wait/service summaries and the S24 heat rates cover the whole
    run (the build phase is serial, so its waits are ~0 on every arm and
    dilute all slots equally).
    """

    label: str
    p: int
    blocks: int
    storage: List[Dict[str, object]]  # ``system.spec.storage``, per slot
    driver_kinds: List[str]  # registry kind per LFS slot
    build_seconds: float
    read_seconds: float
    node_read_ops: List[int]  # device ops per slot during the read
    node_read_busy: List[float]  # busy seconds per slot during the read
    node_wait_ms_mean: List[float]  # whole-run queueing wait, per slot
    node_wait_ms_max: List[float]
    node_service_ms_mean: List[float]  # whole-run service time, per slot
    heat_busy_rates: List[float]  # S24 HeatMap busy-seconds/s, per slot
    makespan: float
    events: int

    @property
    def read_blocks_per_second(self) -> float:
        return self.blocks / self.read_seconds if self.read_seconds > 0 else 0.0

    @property
    def node_busy_fractions(self) -> List[float]:
        """Busy fraction of the read window per slot (an object-store
        slot can exceed 1.0: overlapping in-flight transfers)."""
        if self.read_seconds <= 0:
            return [0.0] * len(self.node_read_busy)
        return [busy / self.read_seconds for busy in self.node_read_busy]

    @property
    def heat_busy_shares(self) -> List[float]:
        """Each slot's share of the fabric's total attributed busy time
        (sums to 1.0) — window-independent, so this is the headline the
        heterogeneous arm's attribution check reads."""
        total = sum(self.heat_busy_rates)
        if total <= 0:
            return [0.0] * len(self.heat_busy_rates)
        return [rate / total for rate in self.heat_busy_rates]

    @property
    def hottest_slot(self) -> int:
        """The slot the S24 heat map attributes the most busy time to."""
        shares = self.heat_busy_shares
        return shares.index(max(shares))
