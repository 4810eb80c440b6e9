"""Experiment runners: one function per paper artifact.

Each function builds a fresh simulated system, runs the workload, and
returns a result record (see :mod:`repro.harness.results`).  The bench
scripts under ``benchmarks/`` sweep these runners, assert the paper's
shape and print paper-vs-measured tables; the examples drive them
interactively.  The runners share no control flow — each body *is* its
experiment — so what they share are the small fixtures at the top of
this module, not a generic runner class.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.analysis.models import (
    PAPER_FILE_BLOCKS,
    PAPER_TABLE3_COPY_SECONDS,
    PAPER_TABLE4_SORT_MINUTES,
    batched_rpc_count,
    fabric_speedup_bound,
    listio_rpc_count,
    md1_wait_seconds,
    metadata_partition_buckets,
    mm1_wait_seconds,
    naive_rpc_count,
    pipelined_read_seconds,
    twophase_message_counts,
)
from repro.baselines import SequentialSystem, StripedSystem
from repro.collective import TwoPhaseIO
from repro.config import DEFAULT_CONFIG
from repro.core import JobController, ParallelWorker
from repro.efs.fsck import check_system
from repro.elastic import HeatMap, fabric_namespace
from repro.errors import DeviceFailedError, ProcessError
from repro.harness.builders import BridgeSystem, paper_system
from repro.harness.results import (
    CollectiveRun,
    CopyRun,
    CreateTreeRun,
    ElasticRun,
    MetadataRun,
    PrefetchRun,
    RebalanceRun,
    RedundancyRun,
    SortRun,
    StorageDriverRun,
    StripingRun,
    Table2Measurement,
    TokenSaturationRun,
    TrafficRun,
    ViewsRun,
)
from repro.harness.spec import SystemSpec
from repro.redundancy import FaultInjector
from repro.sim import join_all
from repro.tools import CopyTool, SortTool, WordCountTool
from repro.tools.sort import PairMerge
from repro.traffic import (
    RequestMix,
    SLORecorder,
    TrafficGenerator,
    ZipfCatalog,
)
from repro.workloads import (
    build_file,
    build_record_file,
    pattern_chunks,
    read_to_eof,
    timed,
    uniform_keys,
)
from repro.workloads.traces import (
    hotspot_pattern,
    scatter_pattern,
    strided_pattern,
)


def full_scale() -> bool:
    """True when REPRO_FULL=1: run the paper's 10 MB configuration."""
    return os.environ.get("REPRO_FULL", "") == "1"


def default_blocks() -> int:
    """Bench workload size: 10 922 blocks (paper) or a CI-sized 1 MB."""
    return PAPER_FILE_BLOCKS if full_scale() else 1092


def default_sort_records() -> int:
    # ~0.19x of the paper's file by default: small enough for CI, large
    # enough that per-pass file management doesn't drown the p = 32 rows.
    return default_blocks() if full_scale() else 2048


# ---------------------------------------------------------------------------
# Fixtures the runners share
# ---------------------------------------------------------------------------


def _parallel_read(system, name: str, blocks: int, worker_count: int) -> float:
    """Read ``name`` through a parallel-open job of ``worker_count``
    draining workers (virtual parallelism when that exceeds p); returns
    the simulated seconds of the lock-step read rounds."""
    workers = [ParallelWorker(system.client_node, i)
               for i in range(worker_count)]

    def drain(worker):
        while True:
            delivery = yield from worker.receive()
            if delivery.eof:
                return

    processes = [
        system.client_node.spawn(drain(w), name=f"drain{w.index}")
        for w in workers
    ]

    def read_rounds(controller):
        for _ in range(-(-blocks // worker_count) + 1):
            yield from controller.read()

    def controller_body():
        controller = JobController(system.client_node, system.bridge.port)
        yield from controller.open(name, [w.port for w in workers])
        _, elapsed = yield from timed(system, read_rounds(controller))
        yield join_all(processes)
        return elapsed

    return system.run(controller_body(), name="parallel-read")


# ---------------------------------------------------------------------------
# E2: Table 2 — basic operations
# ---------------------------------------------------------------------------


def measure_table2(p: int, file_blocks: int = 256, seed: int = 0) -> Table2Measurement:
    """Measure Open/Read/Write/Create/Delete through the naive view."""
    system = paper_system(p, seed=seed)
    client = system.naive_client()

    def body():
        # Read and Write are amortized per block (the read includes the
        # per-LFS startup); Open runs against a warm directory.
        seconds = {}
        for op, generator in (
            ("create", client.create("t2")),
            ("write", client.write_all("t2", pattern_chunks(file_blocks))),
            ("open", client.open("t2")),
            ("read", read_to_eof(client, "t2")),
            ("delete", client.delete("t2")),
        ):
            _, seconds[op] = yield from timed(system, generator)
        return seconds

    seconds = system.run(body())
    return Table2Measurement(
        p=p,
        file_blocks=file_blocks,
        open_ms=seconds["open"] * 1e3,
        read_ms_per_block=seconds["read"] * 1e3 / file_blocks,
        write_ms_per_block=seconds["write"] * 1e3 / file_blocks,
        create_ms=seconds["create"] * 1e3,
        delete_ms_total=seconds["delete"] * 1e3,
    )


# ---------------------------------------------------------------------------
# E3/E4: Table 3 — copy tool
# ---------------------------------------------------------------------------


def run_copy_experiment(p: int, blocks: Optional[int] = None, seed: int = 0) -> CopyRun:
    blocks = blocks if blocks is not None else default_blocks()
    system = paper_system(p, seed=seed)
    build_file(system, "big", pattern_chunks(blocks))
    tool = CopyTool(system.client_node, system.bridge.port, system.config)
    result = system.run(tool.run("big", "big-copy"), name="copy-experiment")
    return CopyRun(
        p=p,
        blocks=blocks,
        elapsed=result.elapsed,
        paper_seconds=PAPER_TABLE3_COPY_SECONDS.get(p),
    )


# ---------------------------------------------------------------------------
# E5/E6: Table 4 — sort tool
# ---------------------------------------------------------------------------


def run_sort_experiment(p: int, records: Optional[int] = None, seed: int = 0,
                        buffer_records: Optional[int] = None) -> SortRun:
    records = records if records is not None else default_sort_records()
    config = DEFAULT_CONFIG
    if buffer_records is not None:
        config = config.with_changes(sort_buffer_records=buffer_records)
    system = paper_system(p, seed=seed, config=config)
    build_record_file(system, "unsorted", uniform_keys(records, seed=seed))
    tool = SortTool(system.client_node, system.bridge.port, system.config)
    result = system.run(tool.run("unsorted", "sorted"), name="sort-experiment")
    return SortRun(
        p=p,
        records=records,
        local_sort_seconds=result.local_sort_time,
        merge_seconds=result.merge_time,
        total_seconds=result.total_time,
        paper_minutes=PAPER_TABLE4_SORT_MINUTES.get(p),
    )


# ---------------------------------------------------------------------------
# E10: the three views (and the virtual-parallelism lock-step penalty)
# ---------------------------------------------------------------------------


def run_views_experiment(p: int, blocks: Optional[int] = None, seed: int = 0,
                         network: str = "butterfly") -> ViewsRun:
    """Compare the three views on one file.

    ``network`` is ``"butterfly"`` (shared-memory queues; the paper's
    prototype) or ``"ethernet"`` (a shared 10 Mb/s bus — the environment
    where section 1 says moving code to the data matters most).
    """
    blocks = blocks if blocks is not None else max(64, default_blocks() // 4)
    system = paper_system(p, seed=seed, network=network)
    build_file(system, "viewed", pattern_chunks(blocks))
    client = system.naive_client()

    def naive():
        yield from client.open("viewed")
        _, elapsed = yield from timed(system, read_to_eof(client, "viewed"))
        return elapsed

    naive_seconds = system.run(naive(), name="naive-view")
    parallel_seconds = _parallel_read(system, "viewed", blocks, p)
    virtual_seconds = _parallel_read(system, "viewed", blocks, 2 * p)
    tool = WordCountTool(system.client_node, system.bridge.port, system.config)
    tool_seconds = system.run(tool.run("viewed"), name="tool-view").elapsed
    return ViewsRun(
        p=p,
        blocks=blocks,
        naive_seconds=naive_seconds,
        parallel_open_seconds=parallel_seconds,
        tool_seconds=tool_seconds,
        virtual_parallel_seconds=virtual_seconds,
    )


# ---------------------------------------------------------------------------
# E12: Bridge vs striping vs a single conventional FS
# ---------------------------------------------------------------------------


def run_striping_comparison(devices: int, blocks: Optional[int] = None,
                            seed: int = 0) -> StripingRun:
    blocks = blocks if blocks is not None else max(128, default_blocks() // 4)
    chunks = pattern_chunks(blocks)

    bridge = paper_system(devices, seed=seed)
    build_file(bridge, "cmp", chunks)
    tool = CopyTool(bridge.client_node, bridge.bridge.port, bridge.config)
    bridge_seconds = bridge.run(tool.run("cmp", "cmp-out")).elapsed

    striped = StripedSystem(devices, seed=seed)
    striped.build_file("cmp", chunks)
    _n, striped_seconds = striped.copy_file("cmp", "cmp-out")

    sequential = SequentialSystem(seed=seed)
    src = sequential.build_file(chunks)
    sequential_seconds = sequential.copy_file(src).elapsed

    return StripingRun(
        devices=devices,
        blocks=blocks,
        bridge_tool_seconds=bridge_seconds,
        striped_seconds=striped_seconds,
        sequential_seconds=sequential_seconds,
    )


# ---------------------------------------------------------------------------
# E11: token saturation — one pair merge at growing width
# ---------------------------------------------------------------------------


def run_token_saturation(width: int, records: Optional[int] = None,
                         seed: int = 0) -> TokenSaturationRun:
    """Merge two pre-sorted width/2 files into one width-wide file."""
    if width < 2 or width % 2:
        raise ValueError("merge width must be even and >= 2")
    records = records if records is not None else max(128, default_blocks() // 8)
    system = paper_system(width, seed=seed)
    keys = sorted(uniform_keys(records, seed=seed))
    half = width // 2
    build_record_file(system, "left", keys[0::2],
                      node_slots=list(range(half)), start=0)
    build_record_file(system, "right", keys[1::2],
                      node_slots=list(range(half, width)), start=0)
    client = system.naive_client()

    def body():
        yield from client.create("merged", node_slots=list(range(width)), start=0)
        left = yield from client.open("left")
        right = yield from client.open("right")
        out = yield from client.open("merged")
        merge = PairMerge(system.client_node, system.config)
        stats = yield from merge.run(
            left.constituents, right.constituents, out.constituents,
            left.total_blocks + right.total_blocks,
        )
        return stats

    stats = system.run(body(), name="token-saturation")
    return TokenSaturationRun(width=width, records=stats.records,
                              elapsed=stats.elapsed)


# ---------------------------------------------------------------------------
# E8: create dispatch — sequential vs embedded binary tree
# ---------------------------------------------------------------------------


def run_create_tree_experiment(p: int, seed: int = 0,
                               batch: int = 8) -> CreateTreeRun:
    def create_ms(use_tree: bool, names: Optional[List[str]] = None) -> float:
        """One ``create`` — or, given ``names``, one ``mcreate`` of
        identically-shaped files, per file (the S23 arm: the batch
        amortizes the fixed per-request charges)."""
        config = DEFAULT_CONFIG.with_changes(create_uses_tree=use_tree)
        system = paper_system(p, seed=seed, config=config)
        client = system.naive_client()

        def body():
            if names is None:
                _, elapsed = yield from timed(system, client.create("probe"))
                return elapsed * 1e3
            outcomes, elapsed = yield from timed(system, client.mcreate(names))
            for outcome in outcomes:
                outcome.unwrap()
            return elapsed * 1e3 / len(names)

        return system.run(body(), name="create-probe")

    return CreateTreeRun(
        p=p, sequential_ms=create_ms(False), tree_ms=create_ms(True),
        # the tree dispatch (the winner above) serves each batched create
        batched_per_file_ms=create_ms(
            True, [f"probe{index}" for index in range(batch)]),
    )


# ---------------------------------------------------------------------------
# E24: batched metadata ops vs per-name loops
# ---------------------------------------------------------------------------


def run_metadata_experiment(servers: int = 4, names: int = 256, seed: int = 0,
                            window: int = 0, lfs_count: int = 4) -> MetadataRun:
    """One S23 ablation point: the same metadata-pure name family pushed
    through a per-name loop and through the batched surface.

    Both arms run on identical fresh fabrics (``servers`` partitions
    over ``lfs_count`` LFS, ``bridge_fanout_limit = window``) and walk
    the same four phases — create, open, stat, delete — over ``names``
    empty width-1 files.  Wall clock and the summed Bridge-Server
    ``requests_served`` delta are recorded per phase; the RPC counts
    must match :func:`repro.analysis.batched_rpc_count` exactly (the
    bench and tests assert equality, not shape).
    """
    name_family = [f"meta/d{i % 16:02d}/f{i:05d}" for i in range(names)]
    config = DEFAULT_CONFIG.with_changes(bridge_fanout_limit=window)

    def run_arm(batched: bool):
        system = paper_system(lfs_count, seed=seed,
                              bridge_server_count=servers, config=config)
        client = system.partitioned_client()
        ms: Dict[str, float] = {}
        rpcs: Dict[str, int] = {}
        errors = 0

        def served() -> int:
            return sum(bridge.requests_served for bridge in system.bridges)

        def loop(op, **kwargs):
            results = []
            for name in name_family:
                results.append((yield from getattr(client, op)(name, **kwargs)))
            return results

        def batch(op, **kwargs):
            nonlocal errors
            outcomes = yield from getattr(client, "m" + op)(name_family, **kwargs)
            errors += sum(not outcome.ok for outcome in outcomes)
            return [outcome.value for outcome in outcomes if outcome.ok]

        def phase(op, **kwargs):
            """One op over the whole family; returns the per-name values."""
            before_ms = system.sim.now
            before_rpcs = served()
            values = system.run((batch if batched else loop)(op, **kwargs),
                                name=f"meta-{op}")
            ms[op] = (system.sim.now - before_ms) * 1e3
            rpcs[op] = served() - before_rpcs
            return values

        phase("create", width=1)
        phase("open")
        stats = phase("stat")
        freed = sum(phase("delete"))
        return ms, rpcs, stats, freed, errors

    loop_ms, loop_rpcs, loop_stats, loop_freed, loop_errors = run_arm(False)
    batch_ms, batch_rpcs, batch_stats, batch_freed, batch_errors = (
        run_arm(True)
    )

    def shape(stat):
        return (stat.name, stat.width, stat.start, stat.total_blocks)

    content_ok = (
        len(loop_stats) == len(batch_stats) == names
        and all(shape(a) == shape(b)
                for a, b in zip(loop_stats, batch_stats))
        and loop_freed == batch_freed
    )
    buckets = metadata_partition_buckets(name_family, servers)
    return MetadataRun(
        servers=servers,
        names=names,
        window=window,
        partitions_touched=len(buckets),
        model_per_name_rpcs=names,
        model_batched_rpcs=batched_rpc_count(name_family, servers,
                                             window=window),
        per_name_ms=loop_ms,
        batched_ms=batch_ms,
        per_name_rpcs=loop_rpcs,
        batched_rpcs=batch_rpcs,
        errors=loop_errors + batch_errors,
        content_ok=content_ok,
    )


# ---------------------------------------------------------------------------
# E13: fault tolerance
# ---------------------------------------------------------------------------


def run_redundancy_experiment(scheme: str, p: int = 4, blocks: Optional[int] = None,
                              seed: int = 0, victim: int = 1) -> RedundancyRun:
    """One redundancy scheme through the full S16 lifecycle.

    Write a file under ``scheme`` (``"none"``, ``"mirror"``, or
    ``"parity"``), measure its storage and device write traffic, read it
    healthy, fail one slot and read it degraded (content-verified against
    the healthy read), then repair and — for parity — run the online
    rebuild sweep and fsck every LFS image.
    """
    blocks = blocks if blocks is not None else 4 * p
    system = paper_system(p, seed=seed, redundancy=scheme)
    rfile = system.redundant_file("protected")
    chunks = pattern_chunks(blocks)
    writes_before = sum(d.writes for d in system.disks)

    def setup():
        yield from rfile.create()
        yield from rfile.write_all(chunks)
        return (yield from rfile.storage_blocks())

    storage = system.run(setup(), name="redundancy-setup")
    write_ops = sum(d.writes for d in system.disks) - writes_before

    def timed_read(label):
        (read_chunks, stats), elapsed = system.run(
            timed(system, rfile.read_all()), name=label)
        return read_chunks, stats, elapsed

    healthy, _stats, healthy_elapsed = timed_read("healthy-read")

    system.drop_efs_caches()
    injector = FaultInjector(system)
    victim = victim % p
    injector.fail_slot(victim)

    reconstruct_before = (
        rfile.read_stats.degraded if scheme == "parity" else 0
    )
    survived = True
    content_ok = False
    degraded_elapsed: Optional[float] = None
    reconstructions = 0
    try:
        degraded, dstats, degraded_elapsed = timed_read("degraded-read")
    except ProcessError as err:
        if not isinstance(err.__cause__, DeviceFailedError):
            raise
        survived = False
    else:
        content_ok = degraded == healthy
        if scheme == "parity":
            reconstructions = dstats.degraded - reconstruct_before
        elif scheme == "mirror":
            reconstructions = dstats.fallbacks

    # Repair; under parity the manager auto-spawns the online rebuild.
    repair_at = system.sim.now
    injector.repair_slot(victim)
    rebuild_seconds: Optional[float] = None
    rebuild_blocks = 0
    if scheme == "parity":
        system.sim.run()  # drain the rebuild sweep
        rebuild = system.redundancy.rebuilds[-1]
        rebuild_seconds = system.sim.now - repair_at
        rebuild_blocks = rebuild.progress.blocks_written

    final, _stats, _elapsed = timed_read("final-read")
    content_ok = content_ok and final == healthy if survived else final == healthy
    fsck_clean = all(report.clean for report in check_system(system))

    return RedundancyRun(
        scheme=scheme,
        p=p,
        blocks=blocks,
        storage_blocks=storage,
        write_device_ops=write_ops,
        healthy_read_s_per_block=healthy_elapsed / blocks,
        degraded_read_s_per_block=(
            degraded_elapsed / blocks if survived else None
        ),
        degraded_reconstructions=reconstructions,
        survived=survived,
        content_ok=content_ok,
        rebuild_seconds=rebuild_seconds,
        rebuild_blocks=rebuild_blocks,
        fsck_clean=fsck_clean,
    )


def run_collective_experiment(
    p: int = 8,
    workers: Optional[int] = None,
    blocks: Optional[int] = None,
    accesses: Optional[int] = None,
    pattern: str = "strided",
    stride: Optional[int] = None,
    seed: int = 0,
) -> CollectiveRun:
    """Noncontiguous-access ablation (S17): naive vs list I/O vs two-phase.

    ``t`` workers (default ``p``) share ``accesses`` single-block reads
    of one interleaved file, shaped by ``pattern`` (``"strided"``,
    ``"scatter"``, or ``"hotspot"``; see :mod:`repro.workloads.traces`).
    Three arms move the same bytes:

    * **naive** — one ``random_read`` RPC per access;
    * **list I/O** — each worker ships its whole pattern as one
      ``list_read``, decomposed into at most p batched EFS requests;
    * **two-phase** — workers exchange patterns, interleave-aligned
      aggregators issue one local batched request per touched LFS.

    EFS caches are flushed and invalidated between arms so each pays its
    own disk traffic.  The measured request/message counts are paired
    with the analytic model (:mod:`repro.analysis.models`) for
    equality checks, and ``content_ok`` records that all three arms
    returned byte-identical data.
    """
    workers = workers if workers is not None else p
    blocks = blocks if blocks is not None else max(64, 8 * p)
    accesses = accesses if accesses is not None else max(32, 4 * p)
    if pattern == "strided":
        stride = stride if stride is not None else max(2, blocks // accesses)
        count = min(accesses, max(1, (blocks - 1) // stride + 1))
        trace = strided_pattern(0, stride, count)
    elif pattern == "scatter":
        trace = scatter_pattern(blocks, min(accesses, blocks), seed=seed)
    elif pattern == "hotspot":
        trace = hotspot_pattern(blocks, accesses, seed=seed)
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    # Round-robin split: worker w takes trace[w::t].
    per_worker = [trace[w::workers] for w in range(workers)]
    per_worker = [blocks_ for blocks_ in per_worker if blocks_]

    system = paper_system(p, seed=seed)
    build_file(system, "coll", pattern_chunks(blocks))
    client = system.naive_client()

    def naive_reads():
        data = []
        for worker_blocks in per_worker:
            worker_data = []
            for block in worker_blocks:
                worker_data.append(
                    (yield from client.random_read("coll", block))
                )
            data.append(worker_data)
        return data

    def listio_reads():
        data = []
        for worker_blocks in per_worker:
            data.append((yield from client.list_read("coll", worker_blocks)))
        return data

    def run_arm(label, opener, reads):
        """Cold caches, a warm open, then the timed reads; returns
        ``(what the reads returned, seconds, EFS requests served)``."""
        system.drop_efs_caches()

        def body():
            yield from opener
            before = sum(s.requests_served for s in system.efs_servers)
            result, seconds = yield from timed(system, reads)
            after = sum(s.requests_served for s in system.efs_servers)
            return result, seconds, after - before

        return system.run(body(), name=f"{label}-arm")

    naive_data, naive_s, naive_reqs = run_arm(
        "naive", client.open("coll"), naive_reads())
    listio_data, listio_s, listio_reqs = run_arm(
        "listio", client.open("coll"), listio_reads())
    engine = TwoPhaseIO(system, "coll")
    (twophase_data, tp_stats), twophase_s, twophase_reqs = run_arm(
        "twophase", engine.open(), engine.read(per_worker))

    model_tp = twophase_message_counts(per_worker, p)
    return CollectiveRun(
        p=p,
        workers=len(per_worker),
        blocks=blocks,
        accesses=sum(len(b) for b in per_worker),
        distinct_blocks=len({b for wb in per_worker for b in wb}),
        pattern=pattern,
        naive_seconds=naive_s,
        naive_efs_requests=naive_reqs,
        listio_seconds=listio_s,
        listio_efs_requests=listio_reqs,
        twophase_seconds=twophase_s,
        twophase_efs_requests=twophase_reqs,
        exchange_messages=tp_stats.exchange_messages,
        redistribution_messages=tp_stats.redistribution_messages,
        model_naive_requests=sum(naive_rpc_count(b) for b in per_worker),
        model_listio_requests=sum(
            listio_rpc_count(b, p) for b in per_worker
        ),
        model_twophase_requests=model_tp["efs_requests"],
        model_redistribution_messages=model_tp["redistribution_messages"],
        content_ok=(listio_data == naive_data and twophase_data == naive_data),
    )


# ---------------------------------------------------------------------------
# S18: Bridge-server caching and striped read-ahead
# ---------------------------------------------------------------------------


def run_prefetch_experiment(p: int = 8, blocks: Optional[int] = None,
                            windows=(1, 2, 4), seed: int = 0):
    """The S18 ablation: cache off / cache only / read-ahead windows.

    Every arm streams the same ``blocks``-block file through the naive
    view twice; returns one :class:`PrefetchRun` per arm with the
    cache-off cold pass as the common baseline.  The "cache" arm sizes
    the cache to hold the whole file, so its *repeat* pass shows what an
    LRU alone buys (the cold pass is identical to "off" — there are no
    repeats to hit); the window arms show the read-ahead pipeline.
    """
    blocks = blocks if blocks is not None else 256
    arms = [("off", 0, 0), ("cache", 0, blocks)]
    arms += [(f"window-{w}", w, 0) for w in windows]
    baseline = None
    baseline_data = None
    runs = []
    for arm, window, cache_blocks in arms:
        system = paper_system(p, seed=seed, prefetch_window=window,
                              bridge_cache_blocks=cache_blocks)
        build_file(system, "stream", pattern_chunks(blocks))
        client = system.naive_client()

        def one_pass():
            # Time only the streaming loop (Open's ~80 ms is Table 2's
            # business and identical across arms).
            yield from client.open("stream")
            return (yield from timed(system, read_to_eof(client, "stream")))

        cold_data, cold = system.run(one_pass(), name=f"prefetch-{arm}-cold")
        repeat_data, repeat = system.run(
            one_pass(), name=f"prefetch-{arm}-repeat")
        stats = system.bridge.bridge_cache_stats() or {}
        if baseline is None:
            baseline, baseline_data = cold, cold_data
        runs.append(
            PrefetchRun(
                arm=arm,
                p=p,
                blocks=blocks,
                prefetch_window=window,
                cache_blocks=stats.get("capacity", cache_blocks),
                elapsed=cold,
                repeat_seconds=repeat,
                baseline_seconds=baseline,
                content_ok=(
                    cold_data == baseline_data
                    and repeat_data == baseline_data
                ),
                model_seconds=(
                    pipelined_read_seconds(blocks, p, DEFAULT_CONFIG)
                    if window > 0 else None
                ),
                hits=stats.get("hits", 0),
                misses=stats.get("misses", 0),
                prefetch_issued=stats.get("prefetch_issued", 0),
                prefetch_used=stats.get("prefetch_used", 0),
                prefetch_wasted=stats.get("prefetch_wasted", 0),
                invalidations=stats.get("invalidations", 0),
            )
        )
    return runs


# ---------------------------------------------------------------------------
# S21/S22/S24: open-loop production traffic
# ---------------------------------------------------------------------------


def build_traffic_catalog(system, files: int, blocks: int, skew: float = 1.1):
    """Create the popularity catalog: ``files`` files of ``blocks`` blocks.

    Runs during setup (simulation time advances); returns the
    :class:`~repro.traffic.ZipfCatalog` the generator samples from.
    """
    names = [f"tf{index:03d}" for index in range(files)]
    for name in names:
        chunks = [b"%s-%03d|" % (name.encode(), i) for i in range(blocks)]
        build_file(system, name, chunks)
    return ZipfCatalog(names, blocks, skew=skew)


class _OpenLoopFabric:
    """What the three open-loop runners set up the same way: the
    ``open-loop`` preset system (``fields`` laid over it), its Zipf
    catalog, the admission policy installed only once the catalog is
    built (setup must not be rate-limited), and per-partition busy and
    served marks taken where the drive starts."""

    def __init__(self, files: int, blocks: int, skew: float, mix,
                 policy: str = "none", admission_params=None, **fields) -> None:
        self.system = system = BridgeSystem(
            SystemSpec.preset("open-loop", **fields))
        self.catalog = build_traffic_catalog(system, files, blocks, skew=skew)
        system.install_admission({"policy": policy, **(admission_params or {})})
        self.mix = RequestMix(mix)
        self.busy_marks = [b.busy_time for b in system.bridges]
        self.served_mark = sum(b.requests_served for b in system.bridges)
        self.start = system.sim.now

    def generator(self, **generator_kwargs):
        """A fresh ``(recorder, generator)`` pair over the catalog."""
        obs = self.system.obs
        recorder = SLORecorder(registry=obs.metrics if obs is not None else None)
        return recorder, TrafficGenerator(
            self.system, self.catalog, mix=self.mix, recorder=recorder,
            **generator_kwargs,
        )

    def window(self) -> float:
        """Simulated seconds since the marks: arrivals plus the drain."""
        return self.system.sim.now - self.start

    def served(self) -> int:
        bridges = self.system.bridges
        return sum(b.requests_served for b in bridges) - self.served_mark

    def busy_seconds(self) -> List[float]:
        """Per-partition busy time since the marks."""
        return [b.busy_time - mark
                for b, mark in zip(self.system.bridges, self.busy_marks)]


def run_traffic_experiment(
    rate: float,
    duration: float = 4.0,
    policy: str = "none",
    p: int = 4,
    servers: int = 1,
    seed: int = 0,
    files: int = 24,
    blocks: int = 12,
    mix: Optional[Dict[str, float]] = None,
    arrival_kind: str = "poisson",
    patience: Optional[float] = None,
    slow_fraction: float = 0.0,
    skew: float = 1.1,
    admission_params: Optional[Dict[str, object]] = None,
    obs: bool = False,
) -> TrafficRun:
    """One open-loop traffic run: build, drive, account (S21 headline).

    The ``open-loop`` fabric's fast disks leave the Bridge Server's
    serial per-request CPU as the bottleneck — saturation is a *server*
    phenomenon, which is what admission control protects.
    """
    fabric = _OpenLoopFabric(
        files, blocks, skew, mix, policy, admission_params,
        lfs_count=p, seed=seed, bridge_server_count=servers, obs=obs,
    )
    system = fabric.system
    recorder, generator = fabric.generator(
        patience=patience, slow_fraction=slow_fraction)
    system.run(
        generator.open_loop(rate, duration, arrival_kind=arrival_kind),
        name="traffic-source",
    )
    window = fabric.window()
    served = fabric.served()
    busy = fabric.busy_seconds()
    busy_total = (sum(b.busy_time for b in system.bridges)
                  - sum(fabric.busy_marks))
    # Measured per-server service capacity: requests per busy-second of
    # the fabric (fast rejects included — they are served work too).
    service_rate = served / busy_total if busy_total > 0 else 0.0
    served_rate = served / window if window > 0 else 0.0

    # Queue-wait statistics from installed admission queues (empty when
    # the policy has no queue or no policy is installed).
    queues = [
        b.admission.queue for b in system.bridges
        if b.admission is not None and b.admission.queue is not None
    ]
    observed = [q.wait for q in queues if q.wait.count]
    if observed:
        wait_mean = sum(w.total for w in observed) / sum(w.count for w in observed)
        wait_p99 = max(w.p99 for w in observed)
    else:
        wait_mean = 0.0
        wait_p99 = 0.0

    # Queueing predictions at the per-server offered rate: arrivals that
    # reached a server, spread across partitions.
    if service_rate > 0:
        offered = min(served_rate / servers, service_rate * 0.999)
        predicted_mm1 = mm1_wait_seconds(offered, service_rate)
        predicted_md1 = md1_wait_seconds(offered, service_rate)
    else:
        predicted_mm1 = 0.0
        predicted_md1 = 0.0

    return TrafficRun(
        policy=policy or "none",
        p=p,
        servers=servers,
        offered_rate=rate,
        duration=duration,
        arrival_kind=arrival_kind,
        offered=generator.spawned,
        # Goodput and rates are measured over the *service window* —
        # arrivals plus the post-source drain — so an unprotected run
        # that queues half its work past the driving window cannot
        # report goodput above the server's physical capacity.
        summary=recorder.summary(window),
        admission=system.admission_counters(),
        served_rate=served_rate,
        service_rate=service_rate,
        server_utilization=max(
            (seconds / window if window > 0 else 0.0 for seconds in busy),
            default=0.0,
        ),
        queue_wait_mean=wait_mean,
        queue_wait_p99=wait_p99,
        queue_peak_depth=max((q.peak_depth for q in queues), default=0),
        predicted_wait_mm1=predicted_mm1,
        predicted_wait_md1=predicted_md1,
        makespan=system.sim.now,
        events=system.sim.events_executed,
    )


def run_elastic_experiment(
    rate: float = 60.0,
    duration: float = 2.0,
    start_servers: int = 2,
    end_servers: int = 4,
    provisioned: Optional[int] = None,
    p: int = 4,
    seed: int = 0,
    files: int = 24,
    blocks: int = 12,
    mix: Optional[Dict[str, float]] = None,
    skew: float = 1.1,
    moves_per_second: Optional[float] = None,
    forward_window: Optional[float] = 0.25,
    policy: str = "none",
    admission_params: Optional[Dict[str, object]] = None,
    obs: bool = False,
) -> ElasticRun:
    """One resize-under-load run: steady / resize-under-traffic / steady.

    Three equal arrival windows drive the same catalog with independent
    SLO recorders; the fabric resize (grow or shrink, by consistent-hash
    ring + live migration) is spawned at the start of the middle window,
    so its summary *is* the during-migration latency distribution.
    After the final window quiesces, :func:`fabric_safety_oracle` runs.
    """
    if provisioned is None:
        provisioned = max(start_servers, end_servers)
    fabric = _OpenLoopFabric(
        files, blocks, skew, mix, policy, admission_params,
        lfs_count=p, seed=seed, bridge_server_count=start_servers,
        ring="consistent", spare_servers=provisioned - start_servers, obs=obs,
    )
    system = fabric.system
    report_box: Dict[str, object] = {}

    def run_phase(label, with_resize=False):
        recorder, generator = fabric.generator()

        def driver():
            if with_resize:
                def resize():
                    report = yield from system.resize_fabric(
                        end_servers, moves_per_second=moves_per_second,
                        forward_window=forward_window,
                    )
                    report_box["report"] = report

                system.client_node.spawn(resize(), name="elastic.resize")
            result = yield from generator.open_loop(rate, duration)
            return result

        start = system.sim.now
        system.run(driver(), name=f"traffic-{label}")
        return recorder.summary(system.sim.now - start)

    phases = {
        "before": run_phase("before"),
        "during": run_phase("during", with_resize=True),
        "after": run_phase("after"),
    }
    report = report_box["report"]

    return ElasticRun(
        direction=report.direction,
        p=p,
        start_servers=start_servers,
        end_servers=end_servers,
        provisioned=provisioned,
        offered_rate=rate,
        phase_duration=duration,
        files=files,
        planned=report.planned,
        moved=report.moved,
        vanished=report.vanished,
        forwarded=report.forwarded,
        disruption=report.plan.disruption,
        migration_seconds=report.duration,
        moves_per_second=moves_per_second,
        phases=phases,
        **fabric_safety_oracle(system, list(fabric.catalog.names)),
        makespan=system.sim.now,
        events=system.sim.events_executed,
    )


def fabric_safety_oracle(system, names: List[str]) -> Dict[str, object]:
    """The quiesced-fabric safety scan shared by the S22 and S24 runs.

    Scans every partition directory against the live ring (``lost`` /
    ``misrouted`` / ``duplicated`` counts), fscks every LFS image, and
    reads every named file back twice — routed through the fabric and
    reconstructed directly from the LFS blocks via each constituent's
    entry — byte-comparing the two.  Run it only after traffic (and any
    migration sweeps) have drained.
    """
    fabric = system.fabric
    locations = fabric_namespace(fabric)
    lost = sum(1 for name in names if name not in locations)
    duplicated = sum(1 for spots in locations.values() if len(spots) > 1)
    misrouted = sum(
        1 for name, spots in locations.items()
        if len(spots) == 1 and spots[0] != fabric.partition_of(name)
    )
    fsck_clean = all(r.clean for r in check_system(system))

    def readback():
        client = system.partitioned_client()
        efs = [system.efs_client(slot, node=system.client_node)
               for slot in range(system.width)]
        mismatched = 0
        for name in names:
            owner = fabric.server_for(name)
            if not owner.directory.exists(name):
                continue  # counted above as lost/misrouted
            entry = owner.directory.lookup(name)
            routed = yield from client.read_all(name)
            direct = []
            for block in range(entry.total_blocks):
                slot, local = entry.locate_block(block)
                result = yield from efs[entry.node_indexes[slot]].read(
                    entry.efs_file_numbers[slot], local
                )
                direct.append(result.data)
            if routed != direct:
                mismatched += 1
        return mismatched

    content_mismatched = system.run(readback(), name="fabric-verify")
    return {
        "lost": lost,
        "misrouted": misrouted,
        "duplicated": duplicated,
        "content_mismatched": content_mismatched,
        "fsck_clean": fsck_clean,
    }


def run_rebalance_experiment(
    rate: float = 140.0,
    duration: float = 16.0,
    servers: int = 4,
    p: int = 4,
    seed: int = 0,
    files: int = 32,
    blocks: int = 12,
    mix: Optional[Dict[str, float]] = None,
    skew: float = 1.6,
    active: bool = True,
    rebalance_config: Optional[Dict[str, object]] = None,
    obs: bool = False,
) -> RebalanceRun:
    """One S24 arm: a Zipf-skewed S21 mix with the rebalancer on or off.

    Both arms install the heat map and run the control loop; with
    ``active=False`` the loop runs ``watch_only`` — it records the same
    sweep-by-sweep imbalance trajectory but never acts, so off-vs-on is
    the policy's effect and nothing else (``rebalance_config`` overrides
    further :class:`~repro.elastic.RebalanceConfig` fields).  ``skew``
    is deliberately steep: the point is a fabric whose hash placement is
    busy-unbalanced so the rebalancer has heat to move.  After traffic
    and the control loop drain, :func:`fabric_safety_oracle` must come
    back clean across however many sweeps acted.
    """
    fabric = _OpenLoopFabric(
        files, blocks, skew, mix,
        lfs_count=p, seed=seed, bridge_server_count=servers,
        ring="consistent", obs=obs,
        rebalance={"watch_only": not active, **(rebalance_config or {})},
    )
    system = fabric.system
    rebalancer = system.rebalancer
    names = list(fabric.catalog.names)
    # Zipf popularity weights (rank r -> 1/(r+1)^skew): the route bound
    # that matters is over the *offered* load, not the raw namespace.
    popularity = {
        name: 1.0 / (rank + 1) ** skew for rank, name in enumerate(names)
    }
    initial_ring = system.fabric.ring
    recorder, generator = fabric.generator()
    rebalancer.attach(recorder)

    def driver():
        system.client_node.spawn(rebalancer.run(duration), name="rebalancer")
        result = yield from generator.open_loop(rate, duration)
        return result

    system.run(driver(), name="rebalance-traffic")
    window = fabric.window()
    busy_fractions = [
        seconds / window if window > 0 else 0.0
        for seconds in fabric.busy_seconds()
    ][:servers]

    oracle = fabric_safety_oracle(system, names)
    return RebalanceRun(
        active=active and not rebalancer.config.watch_only,
        servers=servers,
        p=p,
        offered_rate=rate,
        duration=duration,
        files=files,
        skew=skew,
        sweeps=[record.to_dict() for record in rebalancer.records],
        actions=rebalancer.actions,
        moves=rebalancer.moves_applied,
        arcs_shed=sum(len(r.shed) for r in rebalancer.records
                      if r.action == "rebalance"),
        busy_fractions=busy_fractions,
        final_imbalance=system.heat.imbalance(system.sim.now,
                                              active=servers),
        route_bound_static=fabric_speedup_bound(
            names, servers, requests=popularity, ring=initial_ring
        ),
        route_bound_final=fabric_speedup_bound(
            names, servers, requests=popularity, ring=system.fabric.ring
        ),
        summary=recorder.summary(window),
        heat=system.heat.snapshot(system.sim.now),
        **oracle,
        makespan=system.sim.now,
        events=system.sim.events_executed,
    )


# ---------------------------------------------------------------------------
# E26: pluggable storage drivers and heterogeneous fabrics (S25)
# ---------------------------------------------------------------------------


def run_storage_driver_experiment(
    p: int,
    blocks: Optional[int] = None,
    seed: int = 0,
    storage=None,
    label: Optional[str] = None,
    heat_window: float = 240.0,
) -> StorageDriverRun:
    """E26: one storage fabric under the standard build + contended read.

    ``storage`` is the ``BridgeSystem(storage=...)`` keyword — one
    driver spec for a homogeneous fabric or a per-slot list for a
    heterogeneous one (``["ram", "ram", "ram", "object"]``).  The
    workload is fixed across arms so only the device layer varies:

    1. **build** — write a ``blocks``-block interleaved file through the
       naive view (serial, so it prices raw device write latency);
    2. **contended read** — a virtual-parallel job with ``2 * p``
       workers, two per constituent, so every device serves two
       concurrent streams and queueing (or, for the object store,
       overlapped in-flight transfers) becomes visible.

    An S24 :class:`~repro.elastic.HeatMap` keyed by LFS slot is
    installed at the device layer (``attach_storage_heat``), so the run
    reports where the fabric's busy time actually went — on the
    3-fast/1-slow arm the slow slot's share is the attribution headline.
    ``heat_window`` must cover the whole run; shares are
    window-independent as long as it does.
    """
    # The read phase must actually touch the devices: size the file past
    # the per-LFS EFS block cache (LRU + sequential scan = full miss on
    # the re-read once the per-node share exceeds the cache).
    cache_floor = (5 * p * DEFAULT_CONFIG.efs_cache_blocks) // 4
    blocks = blocks if blocks is not None else max(
        cache_floor, default_blocks() // 4)
    if blocks * 4 < cache_floor * 3:
        raise ValueError(
            f"blocks={blocks} fits the per-LFS cache at p={p}; the "
            f"contended read would never reach the devices "
            f"(need >= {(cache_floor * 3 + 3) // 4})"
        )
    system = BridgeSystem(p, seed=seed, storage=storage)
    heat = HeatMap(p, window=heat_window, buckets=8, max_names=8)
    system.attach_storage_heat(heat)
    sim = system.sim

    build_start = sim.now
    build_file(system, "driven", pattern_chunks(blocks))
    build_seconds = sim.now - build_start

    ops_marks = [disk.total_operations for disk in system.disks]
    busy_marks = [disk.busy_time for disk in system.disks]
    read_seconds = _parallel_read(system, "driven", blocks, 2 * p)

    driver_kinds = [type(disk).kind for disk in system.disks]
    return StorageDriverRun(
        label=label or "+".join(sorted(set(driver_kinds))),
        p=p,
        blocks=blocks,
        storage=list(system.spec.storage),
        driver_kinds=driver_kinds,
        build_seconds=build_seconds,
        read_seconds=read_seconds,
        node_read_ops=[disk.total_operations - mark
                       for disk, mark in zip(system.disks, ops_marks)],
        node_read_busy=[disk.busy_time - mark
                        for disk, mark in zip(system.disks, busy_marks)],
        node_wait_ms_mean=[disk.wait_times.mean * 1000.0
                           for disk in system.disks],
        node_wait_ms_max=[
            (disk.wait_times.max if disk.wait_times.count else 0.0) * 1000.0
            for disk in system.disks
        ],
        node_service_ms_mean=[disk.service_times.mean * 1000.0
                              for disk in system.disks],
        heat_busy_rates=heat.partition_rates(sim.now),
        makespan=sim.now,
        events=sim.events_executed,
    )
