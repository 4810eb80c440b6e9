"""Experiment runners: one function per paper artifact.

Each function builds a fresh simulated system, runs the workload, and
returns a result record (see :mod:`repro.harness.results`).  The bench
scripts under ``benchmarks/`` are thin wrappers that sweep these runners
and print paper-vs-measured tables; the examples drive them
interactively.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.analysis.models import (
    PAPER_TABLE3_COPY_SECONDS,
    PAPER_TABLE4_SORT_MINUTES,
)
from repro.baselines import SequentialSystem, StripedSystem
from repro.config import DEFAULT_CONFIG
from repro.core import JobController, ParallelWorker
from repro.faults import FaultInjector
from repro.harness.builders import BridgeSystem, paper_system
from repro.rebalance.heat import HeatMap
from repro.redundancy import MirroredFile
from repro.harness.results import (
    CopyRun,
    CreateTreeRun,
    FaultsRun,
    RedundancyRun,
    SortRun,
    StorageDriverRun,
    StripingRun,
    Table2Measurement,
    TokenSaturationRun,
    ViewsRun,
)
from repro.tools import CopyTool, SortTool, WordCountTool
from repro.tools.sort import PairMerge
from repro.workloads import (
    build_file,
    build_record_file,
    pattern_chunks,
    record_chunks,
    uniform_keys,
)


def full_scale() -> bool:
    """True when REPRO_FULL=1: run the paper's 10 MB configuration."""
    return os.environ.get("REPRO_FULL", "") == "1"


def default_blocks() -> int:
    """Bench workload size: 10 922 blocks (paper) or a CI-sized 1 MB."""
    from repro.analysis.models import PAPER_FILE_BLOCKS

    return PAPER_FILE_BLOCKS if full_scale() else 1092


def default_sort_records() -> int:
    # ~0.19x of the paper's file by default: small enough for CI, large
    # enough that per-pass file management doesn't drown the p = 32 rows.
    return default_blocks() if full_scale() else 2048


# ---------------------------------------------------------------------------
# E2: Table 2 — basic operations
# ---------------------------------------------------------------------------


def measure_table2(p: int, file_blocks: int = 256, seed: int = 0) -> Table2Measurement:
    """Measure Open/Read/Write/Create/Delete through the naive view."""
    system = paper_system(p, seed=seed)
    client = system.naive_client()
    sim = system.sim
    chunks = pattern_chunks(file_blocks)

    def body():
        # Create (timed)
        start = sim.now
        yield from client.create("t2")
        create_ms = (sim.now - start) * 1e3
        # Write (amortized per block)
        start = sim.now
        yield from client.write_all("t2", chunks)
        write_ms = (sim.now - start) * 1e3 / file_blocks
        # Open (timed, warm directory)
        start = sim.now
        yield from client.open("t2")
        open_ms = (sim.now - start) * 1e3
        # Read (amortized per block, includes per-LFS startup)
        start = sim.now
        while True:
            block, _data = yield from client.seq_read("t2")
            if block is None:
                break
        read_ms = (sim.now - start) * 1e3 / file_blocks
        # Delete (total)
        start = sim.now
        yield from client.delete("t2")
        delete_ms = (sim.now - start) * 1e3
        return open_ms, read_ms, write_ms, create_ms, delete_ms

    open_ms, read_ms, write_ms, create_ms, delete_ms = system.run(body())
    return Table2Measurement(
        p=p,
        file_blocks=file_blocks,
        open_ms=open_ms,
        read_ms_per_block=read_ms,
        write_ms_per_block=write_ms,
        create_ms=create_ms,
        delete_ms_total=delete_ms,
    )


# ---------------------------------------------------------------------------
# E3/E4: Table 3 — copy tool
# ---------------------------------------------------------------------------


def run_copy_experiment(p: int, blocks: Optional[int] = None, seed: int = 0) -> CopyRun:
    blocks = blocks if blocks is not None else default_blocks()
    system = paper_system(p, seed=seed)
    build_file(system, "big", pattern_chunks(blocks))
    tool = CopyTool(system.client_node, system.bridge.port, system.config)

    def body():
        return (yield from tool.run("big", "big-copy"))

    result = system.run(body(), name="copy-experiment")
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

    def body():
        return (yield from tool.run("unsorted", "sorted"))

    result = system.run(body(), name="sort-experiment")
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

    ``network`` may be ``"butterfly"`` (shared-memory queues; the paper's
    prototype) or ``"ethernet"`` (a shared 10 Mb/s bus — the environment
    where section 1 says moving code to the data matters most).
    """
    blocks = blocks if blocks is not None else max(64, default_blocks() // 4)
    if network == "butterfly":
        system = paper_system(p, seed=seed)
    elif network == "ethernet":
        from repro.machine import EthernetNetwork
        from repro.storage import FixedLatency

        system = BridgeSystem(
            p,
            seed=seed,
            disk_latency=FixedLatency(0.015),
            network=EthernetNetwork,
        )
    else:
        raise ValueError(f"unknown network model {network!r}")
    build_file(system, "viewed", pattern_chunks(blocks))
    sim = system.sim
    client = system.naive_client()

    def naive():
        yield from client.open("viewed")
        start = sim.now
        while True:
            block, _data = yield from client.seq_read("viewed")
            if block is None:
                break
        return sim.now - start

    naive_seconds = system.run(naive(), name="naive-view")

    def parallel_open(worker_count):
        workers = [ParallelWorker(system.client_node, i) for i in range(worker_count)]
        drained = []

        def drain(worker):
            while True:
                delivery = yield from worker.receive()
                if delivery.eof:
                    return

        processes = [
            system.client_node.spawn(drain(w), name=f"drain{w.index}")
            for w in workers
        ]

        def controller_body():
            controller = JobController(system.client_node, system.bridge.port)
            yield from controller.open("viewed", [w.port for w in workers])
            start = sim.now
            rounds = -(-blocks // worker_count) + 1
            for _ in range(rounds):
                yield from controller.read()
            elapsed = sim.now - start
            from repro.sim import join_all

            yield join_all(processes)
            return elapsed

        return system.run(controller_body(), name="parallel-view")

    parallel_seconds = parallel_open(p)
    virtual_seconds = parallel_open(2 * p)

    tool = WordCountTool(system.client_node, system.bridge.port, system.config)

    def tool_view():
        result = yield from tool.run("viewed")
        return result.elapsed

    tool_seconds = system.run(tool_view(), name="tool-view")
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

    def bridge_body():
        return (yield from tool.run("cmp", "cmp-out"))

    bridge_seconds = bridge.run(bridge_body()).elapsed

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
    left_keys = keys[0::2]
    right_keys = keys[1::2]
    build_record_file(system, "left", left_keys,
                      node_slots=list(range(half)), start=0)
    build_record_file(system, "right", right_keys,
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
    def create_ms(use_tree: bool) -> float:
        config = DEFAULT_CONFIG.with_changes(create_uses_tree=use_tree)
        system = paper_system(p, seed=seed, config=config)
        client = system.naive_client()

        def body():
            start = system.sim.now
            yield from client.create("probe")
            return (system.sim.now - start) * 1e3

        return system.run(body(), name="create-probe")

    def batched_per_file_ms() -> float:
        # The S23 arm: one mcreate of ``batch`` identically-shaped
        # files amortizes the fixed per-request charges; the tree
        # dispatch (the winner above) serves each create inside it.
        config = DEFAULT_CONFIG.with_changes(create_uses_tree=True)
        system = paper_system(p, seed=seed, config=config)
        client = system.naive_client()
        names = [f"probe{index}" for index in range(batch)]

        def body():
            start = system.sim.now
            outcomes = yield from client.mcreate(names)
            for outcome in outcomes:
                outcome.unwrap()
            return (system.sim.now - start) * 1e3 / len(names)

        return system.run(body(), name="create-batch")

    return CreateTreeRun(
        p=p, sequential_ms=create_ms(False), tree_ms=create_ms(True),
        batched_per_file_ms=batched_per_file_ms(),
    )


# ---------------------------------------------------------------------------
# E24: batched metadata ops vs per-name loops
# ---------------------------------------------------------------------------


def run_metadata_experiment(servers: int = 4, names: int = 256, seed: int = 0,
                            window: int = 0, lfs_count: int = 4):
    """One S23 ablation point: the same metadata-pure name family pushed
    through a per-name loop and through the batched surface.

    Both arms run on identical fresh fabrics (``servers`` partitions
    over ``lfs_count`` LFS, ``bridge_fanout_limit = window``) and walk
    the same four phases — create, open, stat, delete — over ``names``
    empty width-1 files.  Wall clock and the summed Bridge-Server
    ``requests_served`` delta are recorded per phase; the RPC counts
    must match :func:`repro.analysis.batched_rpc_count` exactly (the
    bench and tests assert equality, not shape).  Returns a
    :class:`~repro.harness.results.MetadataRun`.
    """
    from repro.analysis.models import (
        batched_rpc_count,
        metadata_partition_buckets,
    )
    from repro.harness.results import MetadataRun

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

        def phase(op, body):
            before_ms = system.sim.now
            before_rpcs = served()
            result = system.run(body(), name=f"meta-{op}")
            ms[op] = (system.sim.now - before_ms) * 1e3
            rpcs[op] = served() - before_rpcs
            return result

        if batched:
            def create():
                return (yield from client.mcreate(name_family, width=1))

            def open_():
                return (yield from client.mopen(name_family))

            def stat():
                return (yield from client.mstat(name_family))

            def delete():
                return (yield from client.mdelete(name_family))

            for op, body in (("create", create), ("open", open_)):
                for outcome in phase(op, body):
                    if not outcome.ok:
                        errors += 1
            stats = []
            for outcome in phase("stat", stat):
                if outcome.ok:
                    stats.append(outcome.value)
                else:
                    errors += 1
            freed = 0
            for outcome in phase("delete", delete):
                if outcome.ok:
                    freed += outcome.value
                else:
                    errors += 1
        else:
            def create():
                for name in name_family:
                    yield from client.create(name, width=1)

            def open_():
                for name in name_family:
                    yield from client.open(name)

            def stat():
                results = []
                for name in name_family:
                    results.append((yield from client.stat(name)))
                return results

            def delete():
                total = 0
                for name in name_family:
                    total += yield from client.delete(name)
                return total

            phase("create", create)
            phase("open", open_)
            stats = phase("stat", stat)
            freed = phase("delete", delete)

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
                              seed: int = 0, victim: int = 1,
                              rebuild_rate: Optional[float] = None) -> RedundancyRun:
    """One redundancy scheme through the full S16 lifecycle.

    Write a file under ``scheme`` (``"none"``, ``"mirror"``, or
    ``"parity"``), measure its storage and device write traffic, read it
    healthy, fail one slot and read it degraded (content-verified against
    the healthy read), then repair and — for parity — run the online
    rebuild sweep and fsck every LFS image.
    """
    from repro.efs.fsck import check_system
    from repro.errors import DeviceFailedError, ProcessError

    blocks = blocks if blocks is not None else 4 * p
    system = paper_system(p, seed=seed, redundancy=scheme,
                          rebuild_rate=rebuild_rate)
    rfile = system.redundant_file("protected")
    chunks = pattern_chunks(blocks)
    writes_before = sum(d.writes for d in system.disks)

    def setup():
        yield from rfile.create()
        yield from rfile.write_all(chunks)
        return (yield from rfile.storage_blocks())

    storage = system.run(setup(), name="redundancy-setup")
    write_ops = sum(d.writes for d in system.disks) - writes_before

    def timed_read():
        start = system.sim.now
        read_chunks, stats = yield from rfile.read_all()
        return read_chunks, stats, system.sim.now - start

    healthy, _stats, healthy_elapsed = system.run(
        timed_read(), name="healthy-read"
    )

    for efs in system.efs_servers:
        system.run(efs.cache.flush(), name="flush")
        efs.cache.invalidate_all()
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
        degraded, dstats, degraded_elapsed = system.run(
            timed_read(), name="degraded-read"
        )
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

    final, _stats, _elapsed = system.run(timed_read(), name="final-read")
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
        cache_hits=sum(e.cache.hits for e in system.efs_servers),
        cache_misses=sum(e.cache.misses for e in system.efs_servers),
        cache_evictions=sum(e.cache.evictions for e in system.efs_servers),
        cache_writebacks=sum(e.cache.writebacks for e in system.efs_servers),
    )


def run_collective_experiment(
    p: int = 8,
    workers: Optional[int] = None,
    blocks: Optional[int] = None,
    accesses: Optional[int] = None,
    pattern: str = "strided",
    stride: Optional[int] = None,
    seed: int = 0,
) -> "CollectiveRun":
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
    from repro.analysis.models import (
        listio_rpc_count,
        naive_rpc_count,
        twophase_message_counts,
    )
    from repro.collective import TwoPhaseIO
    from repro.harness.results import CollectiveRun
    from repro.workloads.traces import (
        hotspot_pattern,
        scatter_pattern,
        strided_pattern,
    )

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
    sim = system.sim
    efs_total = lambda: sum(s.requests_served for s in system.efs_servers)

    def flush_caches():
        for efs in system.efs_servers:
            system.run(efs.cache.flush(), name="flush")
            efs.cache.invalidate_all()

    def naive_arm():
        yield from client.open("coll")
        before = efs_total()
        start = sim.now
        data = []
        for worker_blocks in per_worker:
            worker_data = []
            for block in worker_blocks:
                worker_data.append(
                    (yield from client.random_read("coll", block))
                )
            data.append(worker_data)
        return data, sim.now - start, efs_total() - before

    flush_caches()
    naive_data, naive_s, naive_reqs = system.run(naive_arm(), name="naive-arm")

    def listio_arm():
        yield from client.open("coll")
        before = efs_total()
        start = sim.now
        data = []
        for worker_blocks in per_worker:
            data.append((yield from client.list_read("coll", worker_blocks)))
        return data, sim.now - start, efs_total() - before

    flush_caches()
    listio_data, listio_s, listio_reqs = system.run(
        listio_arm(), name="listio-arm"
    )

    def twophase_arm():
        engine = TwoPhaseIO(system, "coll")
        yield from engine.open()  # warm, like the other arms' open()
        before = efs_total()
        start = sim.now
        data, stats = yield from engine.read(per_worker)
        return data, sim.now - start, efs_total() - before, stats

    flush_caches()
    twophase_data, twophase_s, twophase_reqs, tp_stats = system.run(
        twophase_arm(), name="twophase-arm"
    )

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


def run_faults_experiment(p: int = 4, blocks: int = 16, seed: int = 0) -> FaultsRun:
    from repro.errors import DeviceFailedError

    system = paper_system(p, seed=seed)
    build_file(system, "plain", pattern_chunks(blocks))
    mirrored = MirroredFile(system, "guarded")

    def setup():
        yield from mirrored.create()
        yield from mirrored.write_all(pattern_chunks(blocks))
        return (yield from mirrored.storage_blocks())

    mirror_storage = system.run(setup(), name="fault-setup")
    for efs in system.efs_servers:
        system.run(efs.cache.flush(), name="flush")
        efs.cache.invalidate_all()
    FaultInjector(system).fail_slot(seed % p)

    client = system.naive_client()

    def read_plain():
        try:
            for block in range(blocks):
                yield from client.random_read("plain", block)
        except DeviceFailedError:
            return True  # lost
        return False

    plain_lost = system.run(read_plain(), name="fault-plain")

    def read_mirrored():
        chunks, stats = yield from mirrored.read_all()
        return len(chunks) == blocks, stats.fallbacks

    recovered, fallbacks = system.run(read_mirrored(), name="fault-mirrored")
    return FaultsRun(
        p=p,
        blocks=blocks,
        plain_lost=plain_lost,
        mirrored_recovered=recovered,
        mirror_fallbacks=fallbacks,
        mirror_storage_blocks=mirror_storage,
        plain_storage_blocks=blocks,
    )


# ---------------------------------------------------------------------------
# S18: Bridge-server caching and striped read-ahead
# ---------------------------------------------------------------------------


def _prefetch_arm(arm: str, p: int, blocks: int, seed: int,
                  prefetch_window: int, cache_blocks: int):
    """One configuration reading one file twice through the naive view."""
    system = paper_system(
        p, seed=seed,
        prefetch_window=prefetch_window,
        bridge_cache_blocks=cache_blocks,
    )
    build_file(system, "stream", pattern_chunks(blocks))
    client = system.naive_client()

    def one_pass():
        # Time only the streaming loop (Open's ~80 ms is Table 2's
        # business and identical across arms).
        yield from client.open("stream")
        start = system.sim.now
        chunks = []
        while True:
            block_number, data = yield from client.seq_read("stream")
            if block_number is None:
                return system.sim.now - start, chunks
            chunks.append(data)

    cold, cold_data = system.run(one_pass(), name=f"prefetch-{arm}-cold")
    repeat, repeat_data = system.run(one_pass(), name=f"prefetch-{arm}-repeat")
    stats = system.bridge.bridge_cache_stats() or {}
    return cold, repeat, cold_data, repeat_data, stats


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
    from repro.analysis.models import pipelined_read_seconds
    from repro.harness.results import PrefetchRun

    blocks = blocks if blocks is not None else 256
    arms = [("off", 0, 0), ("cache", 0, blocks)]
    arms += [(f"window-{w}", w, 0) for w in windows]
    baseline = None
    baseline_data = None
    runs = []
    for arm, window, cache_blocks in arms:
        cold, repeat, cold_data, repeat_data, stats = _prefetch_arm(
            arm, p, blocks, seed, window, cache_blocks
        )
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


def _obs_stream_workload(system, name: str, blocks: int):
    """Create + write ``blocks``, then stream them back naively."""
    client = system.naive_client()
    yield from client.create(name, width=system.width)
    for i in range(blocks):
        yield from client.seq_write(name, bytes([i % 256]) * 960)
    yield from client.open(name)
    for _ in range(blocks):
        yield from client.seq_read(name)


def run_obs_experiment(p: int = 8, blocks: Optional[int] = None,
                       seed: int = 0):
    """The S19 headline: run the naive sequential stream bare and
    instrumented, check the event sequences match, and attribute the
    read latency per component against the exact cost model.

    Returns an :class:`~repro.harness.results.ObsRun`.  The file is
    sized to stay resident in the EFS track caches (the paper's cached
    9 ms regime), so the model's ``resident=True`` arm applies.
    """
    from repro.analysis.models import naive_read_components
    from repro.harness.results import ObsRun
    from repro.obs import attribute_ops

    blocks = blocks if blocks is not None else 32 * p
    name = "obsfile"

    bare = paper_system(p, seed=seed)
    bare.run(_obs_stream_workload(bare, name, blocks))

    instrumented = paper_system(p, seed=seed, obs=True)
    instrumented.run(_obs_stream_workload(instrumented, name, blocks))
    obs = instrumented.obs

    agg = attribute_ops(obs, "call.seq_read")
    return ObsRun(
        p=p,
        blocks=blocks,
        ops=agg["ops"],
        latency_seconds=agg["latency_seconds"],
        attribution_seconds=agg["attribution_seconds"],
        attribution_fractions=agg["attribution_fractions"],
        model_seconds=naive_read_components(blocks, resident=True),
        span_count=len(obs.spans),
        spans_dropped=obs.spans_dropped,
        disk_busy_fractions=obs.timeline.disk_busy_fractions(
            0.0, instrumented.sim.now
        ),
        events_obs_off=bare.sim.events_executed,
        events_obs_on=instrumented.sim.events_executed,
        elapsed_obs_off=bare.sim.now,
        elapsed_obs_on=instrumented.sim.now,
    )


# ---------------------------------------------------------------------------
# S21: open-loop production traffic
# ---------------------------------------------------------------------------


def build_traffic_catalog(system, files: int, blocks: int, skew: float = 1.1):
    """Create the popularity catalog: ``files`` files of ``blocks`` blocks.

    Runs during setup (simulation time advances); returns the
    :class:`~repro.traffic.ZipfCatalog` the generator samples from.
    """
    from repro.traffic import ZipfCatalog

    names = [f"tf{index:03d}" for index in range(files)]
    for name in names:
        chunks = [b"%s-%03d|" % (name.encode(), i) for i in range(blocks)]
        build_file(system, name, chunks)
    return ZipfCatalog(names, blocks, skew=skew)


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
):
    """One open-loop traffic run: build, drive, account (S21 headline).

    The system uses fast fixed-latency disks so the Bridge Server's
    serial per-request CPU is the bottleneck — saturation is a *server*
    phenomenon, which is what admission control protects.  The policy is
    installed only after the catalog is built (setup must not be
    rate-limited).  Returns a :class:`~repro.harness.results.TrafficRun`.
    """
    from repro.analysis.models import md1_wait_seconds, mm1_wait_seconds
    from repro.harness.results import TrafficRun
    from repro.storage import FixedLatency
    from repro.traffic import RequestMix, SLORecorder, TrafficGenerator

    system = BridgeSystem(
        p, seed=seed, disk_latency=FixedLatency(0.0005),
        bridge_server_count=servers, obs=obs,
    )
    catalog = build_traffic_catalog(system, files, blocks, skew=skew)
    if policy not in (None, "none"):
        spec = {"policy": policy, **(admission_params or {})}
        system.install_admission(spec)

    registry = system.obs.metrics if system.obs is not None else None
    recorder = SLORecorder(registry=registry)
    generator = TrafficGenerator(
        system, catalog,
        mix=RequestMix(mix) if mix is not None else None,
        recorder=recorder,
        patience=patience,
        slow_fraction=slow_fraction,
    )

    served_before = sum(b.requests_served for b in system.bridges)
    busy_marks = [b.busy_time for b in system.bridges]
    busy_before = sum(busy_marks)
    start = system.sim.now
    system.run(
        generator.open_loop(rate, duration, arrival_kind=arrival_kind),
        name="traffic-source",
    )
    makespan = system.sim.now

    served_delta = sum(b.requests_served for b in system.bridges) - served_before
    busy_delta = sum(b.busy_time for b in system.bridges) - busy_before
    # Measured per-server service capacity: requests per busy-second of
    # the fabric (fast rejects included — they are served work too).
    service_rate = served_delta / busy_delta if busy_delta > 0 else 0.0
    window = makespan - start
    served_rate = served_delta / window if window > 0 else 0.0
    busiest = max(
        ((b.busy_time - mark) / window if window > 0 else 0.0
         for b, mark in zip(system.bridges, busy_marks)),
        default=0.0,
    )

    # Queue-wait statistics from installed admission queues (empty when
    # the policy has no queue or no policy is installed).
    waits = [
        b.admission.queue.wait for b in system.bridges
        if b.admission is not None and b.admission.queue is not None
    ]
    observed = [w for w in waits if w.count]
    if observed:
        wait_mean = sum(w.total for w in observed) / sum(w.count for w in observed)
        wait_p99 = max(w.p99 for w in observed)
    else:
        wait_mean = 0.0
        wait_p99 = 0.0
    peak_depth = max(
        (b.admission.queue.peak_depth for b in system.bridges
         if b.admission is not None and b.admission.queue is not None),
        default=0,
    )

    # Per-server offered rate for the queueing predictions: arrivals
    # that reached a server, spread across partitions.
    per_server_lambda = (served_delta / window / servers) if window > 0 else 0.0
    per_server_mu = service_rate  # requests per busy-second of one loop
    if per_server_mu > 0:
        predicted_mm1 = mm1_wait_seconds(
            min(per_server_lambda, per_server_mu * 0.999), per_server_mu
        )
        predicted_md1 = md1_wait_seconds(
            min(per_server_lambda, per_server_mu * 0.999), per_server_mu
        )
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
        server_utilization=busiest,
        queue_wait_mean=wait_mean,
        queue_wait_p99=wait_p99,
        queue_peak_depth=peak_depth,
        predicted_wait_mm1=predicted_mm1,
        predicted_wait_md1=predicted_md1,
        makespan=makespan,
        events=system.sim.events_executed,
    )


# ---------------------------------------------------------------------------
# S22: resize-under-load (elastic fabric)
# ---------------------------------------------------------------------------


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
):
    """One resize-under-load run: steady / resize-under-traffic / steady.

    Three equal arrival windows drive the same catalog with independent
    SLO recorders; the fabric resize (grow or shrink, by consistent-hash
    ring + live migration) is spawned at the start of the middle window,
    so its summary *is* the during-migration latency distribution.
    After the final window quiesces, the safety oracle runs: directory
    ownership is scanned against the live ring (lost / misrouted /
    duplicated counts), EFS fsck checks every LFS, and every catalog
    file is read back twice — once routed through the fabric, once
    reconstructed directly from the LFS blocks via each constituent's
    entry — and byte-compared.  Returns an
    :class:`~repro.harness.results.ElasticRun`.
    """
    from repro.efs.fsck import check_system
    from repro.harness.results import ElasticRun
    from repro.storage import FixedLatency
    from repro.traffic import RequestMix, SLORecorder, TrafficGenerator

    if provisioned is None:
        provisioned = max(start_servers, end_servers)
    system = BridgeSystem(
        p, seed=seed, disk_latency=FixedLatency(0.0005),
        bridge_server_count=start_servers, elastic=provisioned, obs=obs,
    )
    catalog = build_traffic_catalog(system, files, blocks, skew=skew)
    if policy not in (None, "none"):
        spec = {"policy": policy, **(admission_params or {})}
        system.install_admission(spec)

    registry = system.obs.metrics if system.obs is not None else None
    request_mix = RequestMix(mix) if mix is not None else None
    report_box: Dict[str, object] = {}

    def run_phase(label, with_resize=False):
        recorder = SLORecorder(registry=registry)
        generator = TrafficGenerator(
            system, catalog, mix=request_mix, recorder=recorder,
        )

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

    oracle = fabric_safety_oracle(system, list(catalog.names))

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
        lost=oracle["lost"],
        misrouted=oracle["misrouted"],
        duplicated=oracle["duplicated"],
        content_mismatched=oracle["content_mismatched"],
        fsck_clean=oracle["fsck_clean"],
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
    from repro.efs.fsck import check_system

    fabric = system.fabric
    locations: Dict[str, List[int]] = {}
    for index, bridge in enumerate(system.bridges):
        for name in bridge.directory.names():
            locations.setdefault(name, []).append(index)
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


# ---------------------------------------------------------------------------
# S24: load-aware rebalancing (heat-driven control plane)
# ---------------------------------------------------------------------------


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
    rebalance_config=None,
    moves_per_second: Optional[float] = None,
    forward_window: Optional[float] = 0.25,
    obs: bool = False,
):
    """One S24 arm: a Zipf-skewed S21 mix with the rebalancer on or off.

    Both arms install the heat map and run the control loop; with
    ``active=False`` the loop runs ``watch_only`` — it records the same
    sweep-by-sweep imbalance trajectory but never acts, so off-vs-on is
    the policy's effect and nothing else.  ``skew`` is deliberately
    steep: the point is a fabric whose hash placement is busy-unbalanced
    so the rebalancer has heat to move.  After traffic and the control
    loop drain, the S22 safety oracle (directory ownership scan, fsck,
    routed-vs-direct readback) must come back clean across however many
    sweeps acted.  Returns a :class:`~repro.harness.results.RebalanceRun`.
    """
    from repro.analysis.models import fabric_speedup_bound
    from repro.harness.results import RebalanceRun
    from repro.rebalance import RebalanceConfig
    from repro.storage import FixedLatency
    from repro.traffic import RequestMix, SLORecorder, TrafficGenerator

    if rebalance_config is None:
        config = RebalanceConfig(watch_only=not active)
    elif isinstance(rebalance_config, RebalanceConfig):
        config = rebalance_config
    else:
        config = RebalanceConfig(**{"watch_only": not active,
                                    **rebalance_config})

    system = BridgeSystem(
        p, seed=seed, disk_latency=FixedLatency(0.0005),
        bridge_server_count=servers, rebalance=config, obs=obs,
    )
    catalog = build_traffic_catalog(system, files, blocks, skew=skew)
    names = list(catalog.names)
    # Zipf popularity weights (rank r -> 1/(r+1)^skew): the route bound
    # that matters is over the *offered* load, not the raw namespace.
    popularity = {
        name: 1.0 / (rank + 1) ** skew for rank, name in enumerate(names)
    }
    initial_ring = system.fabric.ring

    registry = system.obs.metrics if system.obs is not None else None
    recorder = SLORecorder(registry=registry)
    system.rebalancer.attach(recorder)
    generator = TrafficGenerator(
        system, catalog,
        mix=RequestMix(mix) if mix is not None else None,
        recorder=recorder,
    )

    busy_marks = [b.busy_time for b in system.bridges]
    request_marks = [b.requests_served for b in system.bridges]
    start = system.sim.now

    def driver():
        system.client_node.spawn(system.rebalancer.run(duration),
                                 name="rebalancer")
        result = yield from generator.open_loop(rate, duration)
        return result

    system.run(driver(), name="rebalance-traffic")
    window = system.sim.now - start

    busy_fractions = [
        (b.busy_time - mark) / window if window > 0 else 0.0
        for b, mark in zip(system.bridges, busy_marks)
    ][:servers]

    oracle = fabric_safety_oracle(system, names)
    final_ring = system.fabric.ring
    rebalancer = system.rebalancer

    return RebalanceRun(
        active=active and not config.watch_only,
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
            names, servers, requests=popularity, ring=final_ring
        ),
        summary=recorder.summary(window),
        heat=system.heat.snapshot(system.sim.now),
        lost=oracle["lost"],
        misrouted=oracle["misrouted"],
        duplicated=oracle["duplicated"],
        content_mismatched=oracle["content_mismatched"],
        fsck_clean=oracle["fsck_clean"],
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

    ``storage`` is any :func:`repro.storage.storage_specs` spec — one
    driver spec for a homogeneous fabric or a per-slot list for a
    heterogeneous one (``["ram", "ram", "ram", "object"]``).  The
    workload is fixed across arms so only the device layer varies:

    1. **build** — write a ``blocks``-block interleaved file through the
       naive view (serial, so it prices raw device write latency);
    2. **contended read** — a virtual-parallel job with ``2 * p``
       workers, two per constituent, so every device serves two
       concurrent streams and queueing (or, for the object store,
       overlapped in-flight transfers) becomes visible.

    An S24 :class:`~repro.rebalance.HeatMap` keyed by LFS slot is
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

    worker_count = 2 * p
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

    def controller_body():
        controller = JobController(system.client_node, system.bridge.port)
        yield from controller.open("driven", [w.port for w in workers])
        start = sim.now
        rounds = -(-blocks // worker_count) + 1
        for _ in range(rounds):
            yield from controller.read()
        elapsed = sim.now - start
        from repro.sim import join_all

        yield join_all(processes)
        return elapsed

    read_seconds = system.run(controller_body(), name="contended-read")

    from repro.storage import normalize_driver_spec

    normalized = [
        {"kind": f"factory:{getattr(spec, '__name__', 'callable')}"}
        if callable(spec) else normalize_driver_spec(spec)
        for spec in system.storage_specs
    ]
    if label is None:
        label = storage if isinstance(storage, str) else (
            "ram" if storage is None else "custom")
    return StorageDriverRun(
        label=label,
        p=p,
        blocks=blocks,
        storage=normalized,
        driver_kinds=[type(disk).kind for disk in system.disks],
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
