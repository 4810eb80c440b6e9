"""Markdown report generation from live experiment runs.

``build_report`` runs the headline sweeps (Tables 2-4) at a chosen scale
and renders a self-contained markdown document with paper-vs-measured
tables — the programmatic counterpart of EXPERIMENTS.md, usable from
notebooks or CI:

    from repro.harness.report import build_report
    print(build_report(ps=(2, 4, 8)))
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.models import (
    PAPER_TABLE3_COPY_SECONDS,
    PAPER_TABLE4_SORT_MINUTES,
    fit_line,
    speedup_series,
    table2_open_ms,
    table2_write_ms,
)
from repro.analysis.tables import format_markdown_table
from repro.harness.experiments import (
    measure_table2,
    run_copy_experiment,
    run_obs_experiment,
    run_prefetch_experiment,
    run_rebalance_experiment,
    run_redundancy_experiment,
    run_sort_experiment,
)
from repro.redundancy import SCHEMES


def table2_section(ps: Sequence[int], file_blocks: int = 256) -> str:
    measurements = {p: measure_table2(p, file_blocks=file_blocks) for p in ps}
    rows = [
        [p, m.open_ms, m.read_ms_per_block, m.write_ms_per_block,
         m.create_ms, m.delete_ms_per_block_per_lfs]
        for p, m in sorted(measurements.items())
    ]
    body = format_markdown_table(
        ["p", "open ms", "read ms/blk", "write ms/blk", "create ms",
         "delete ms/blk/LFS"],
        rows,
    )
    intercept, slope = fit_line(
        list(ps), [measurements[p].create_ms for p in ps]
    )
    return (
        "## Table 2: basic operations\n\n"
        f"{body}\n\n"
        f"Create fit: `{intercept:.0f} + {slope:.1f}p` ms "
        f"(paper `145 + 17.5p`); Open paper {table2_open_ms():.0f} ms; "
        f"Write paper {table2_write_ms():.0f} ms.\n"
    )


def table3_section(ps: Sequence[int], blocks: Optional[int] = None) -> str:
    runs = {p: run_copy_experiment(p, blocks=blocks) for p in ps}
    times = {p: r.elapsed for p, r in runs.items()}
    measured = speedup_series(times)
    paper = speedup_series(
        {p: s for p, s in PAPER_TABLE3_COPY_SECONDS.items() if p in ps}
    )
    rows = [
        [p, runs[p].blocks, runs[p].elapsed, runs[p].records_per_second,
         measured[p], paper.get(p, "-")]
        for p in sorted(runs)
    ]
    body = format_markdown_table(
        ["p", "blocks", "time (s)", "records/s", "speedup", "paper speedup"],
        rows,
    )
    return f"## Table 3: copy tool\n\n{body}\n"


def table4_section(ps: Sequence[int], records: Optional[int] = None) -> str:
    runs = {p: run_sort_experiment(p, records=records) for p in ps}
    rows = [
        [p, runs[p].local_sort_seconds, runs[p].merge_seconds,
         runs[p].total_seconds, runs[p].records_per_second]
        for p in sorted(runs)
    ]
    body = format_markdown_table(
        ["p", "local sort (s)", "merge (s)", "total (s)", "records/s"],
        rows,
    )
    paper = {p: PAPER_TABLE4_SORT_MINUTES[p] for p in ps
             if p in PAPER_TABLE4_SORT_MINUTES}
    return (
        "## Table 4: merge sort tool\n\n"
        f"{body}\n\n"
        f"Paper (local, merge, total) minutes: `{paper}`\n"
    )


def cache_section(system) -> str:
    """Per-LFS :class:`~repro.efs.cache.BlockCache` counters for a live
    system: hits, misses, hit rate, evictions, and dirty writebacks."""
    rows = []
    for slot, efs in enumerate(system.efs_servers):
        cache = efs.cache
        lookups = cache.hits + cache.misses
        rows.append(
            [slot, cache.hits, cache.misses,
             (cache.hits / lookups) if lookups else 0.0,
             cache.evictions, cache.writebacks]
        )
    totals = [sum(r[i] for r in rows) for i in (1, 2, 4, 5)]
    lookups = totals[0] + totals[1]
    rows.append(
        ["all", totals[0], totals[1],
         (totals[0] / lookups) if lookups else 0.0, totals[2], totals[3]]
    )
    body = format_markdown_table(
        ["LFS", "hits", "misses", "hit rate", "evictions", "writebacks"],
        rows,
    )
    return f"## Block cache\n\n{body}\n"


def bridge_cache_section(system) -> str:
    """S18 Bridge-server cache/prefetch counters for a live system:
    hit/miss traffic, invalidations, and read-ahead accounting (issued /
    used / wasted prefetches)."""
    stats = system.bridge.bridge_cache_stats()
    if stats is None:
        return (
            "## Bridge server cache\n\n"
            "Disabled (`bridge_cache_blocks=0`, the seed configuration).\n"
        )
    order = [
        "capacity", "cached_blocks", "hits", "misses", "hit_rate",
        "installs", "evictions", "invalidations", "prefetch_window",
        "stream_recognitions", "prefetch_issued", "prefetch_completed",
        "prefetch_installs", "prefetch_used", "prefetch_wasted",
        "prefetch_dropped",
    ]
    rows = [[key, stats[key]] for key in order if key in stats]
    body = format_markdown_table(["counter", "value"], rows)
    return f"## Bridge server cache\n\n{body}\n"


def prefetch_section(p: int = 8, blocks: Optional[int] = None,
                     windows: Sequence[int] = (1, 2, 4)) -> str:
    """The S18 ablation: cache off / cache only / read-ahead windows,
    streaming the same file twice per arm."""
    runs = run_prefetch_experiment(p=p, blocks=blocks, windows=windows)
    rows = [
        [r.arm, r.ms_per_block, r.elapsed, r.repeat_seconds, r.speedup,
         r.repeat_speedup, r.hits, r.misses, r.prefetch_wasted,
         "ok" if r.content_ok else "MISMATCH"]
        for r in runs
    ]
    body = format_markdown_table(
        ["arm", "ms/blk", "cold (s)", "repeat (s)", "speedup",
         "repeat speedup", "hits", "misses", "wasted", "bytes"],
        rows,
    )
    model = next((r.model_seconds for r in runs if r.model_seconds), None)
    tail = (
        f"\nPipelined model: `{model:.4f}` s for the cold pass "
        "(exact in the client-bound steady state).\n" if model else "\n"
    )
    return (
        f"## Server-side caching & read-ahead (p={p})\n\n{body}\n{tail}"
    )


def redundancy_section(p: int = 4, blocks: Optional[int] = None) -> str:
    """None/mirror/parity through the fail -> rebuild lifecycle (S16),
    with the cache traffic each scheme generated."""
    # mirroring needs >= 2 slots, rotating parity >= 3
    schemes = [s for s in SCHEMES
               if (s == "none") or (s == "mirror" and p >= 2) or p >= 3]
    runs = [run_redundancy_experiment(s, p=p, blocks=blocks) for s in schemes]
    rows = [
        [r.scheme, r.storage_factor, r.write_ops_per_block,
         "survived" if r.survived else "LOST",
         "-" if r.rebuild_seconds is None else r.rebuild_seconds,
         "clean" if r.fsck_clean else "DIRTY",
         r.cache_hits, r.cache_misses, r.cache_evictions, r.cache_writebacks]
        for r in runs
    ]
    body = format_markdown_table(
        ["scheme", "storage", "dev writes/blk", "one failure", "rebuild s",
         "fsck", "cache hits", "misses", "evictions", "writebacks"],
        rows,
    )
    return f"## Redundancy schemes (p={p})\n\n{body}\n"


def observability_section(p: int = 8, blocks: Optional[int] = None) -> str:
    """S19: where does a naive read's latency go?  Critical-path
    attribution vs. the exact cost model, plus determinism and disk
    utilization from the timelines."""
    run = run_obs_experiment(p=p, blocks=blocks)
    categories = sorted(run.attribution_seconds)
    rows = [
        [
            category,
            f"{run.attribution_seconds[category] * 1000:.2f}",
            f"{run.model_seconds.get(category, 0.0) * 1000:.2f}",
            f"{run.attribution_fractions[category] * 100:.1f}%",
        ]
        for category in categories
    ]
    body = format_markdown_table(
        ["component", "measured ms", "model ms", "share"], rows
    )
    busy = ", ".join(
        f"{name}={fraction:.3f}"
        for name, fraction in sorted(run.disk_busy_fractions.items())
    )
    return (
        f"## Observability: naive read critical path (p={p}, "
        f"n={run.blocks})\n\n{body}\n\n"
        f"- partition error: `{run.partition_error:.2e}` "
        "(attribution sums to measured latency by construction)\n"
        f"- worst model error: `{run.max_model_error:.2e}`\n"
        f"- event sequence identical with obs off: "
        f"`{run.event_sequence_identical}` "
        f"({run.events_obs_on} events)\n"
        f"- spans recorded: {run.span_count} "
        f"(dropped {run.spans_dropped})\n"
        f"- disk busy fractions: {busy}\n"
    )


def rebalance_section(rate: float = 150.0, duration: float = 16.0,
                      servers: int = 4, skew: float = 1.2,
                      seed: int = 7) -> str:
    """S24: the heat-driven rebalancer off (watching) vs on, on the same
    Zipf-skewed mix — utilization spread, goodput, read p99, and the
    popularity-weighted route bound recovered."""
    runs = [
        run_rebalance_experiment(rate=rate, duration=duration,
                                 servers=servers, skew=skew, seed=seed,
                                 active=active)
        for active in (False, True)
    ]
    rows = [
        [
            "rebalance" if r.active else "static",
            f"{r.utilization_spread:.3f}",
            f"{r.final_imbalance:.2f}",
            r.actions,
            r.moves,
            f"{r.goodput:.1f}",
            f"{r.p99('read') * 1000:.1f}",
            f"{r.route_bound_final:.2f}",
            "intact" if r.files_intact and r.fsck_clean else "DAMAGED",
        ]
        for r in runs
    ]
    body = format_markdown_table(
        ["arm", "busy spread", "imbalance", "actions", "moves", "goodput",
         "read p99 ms", "route bound", "files"],
        rows,
    )
    return (
        f"## Load-aware rebalancing (servers={servers}, skew={skew})\n\n"
        f"{body}\n\n"
        f"Static-ring popularity-weighted route bound: "
        f"`{runs[0].route_bound_static:.2f}` of a perfect `{servers}.00`; "
        "the rebalance arm's bound is after its arc sheds.\n"
    )


def build_report(ps: Sequence[int] = (2, 4, 8),
                 blocks: Optional[int] = None,
                 records: Optional[int] = None,
                 title: str = "Bridge reproduction report") -> str:
    """Run the headline sweeps and render one markdown document."""
    if not ps:
        raise ValueError("need at least one processor count")
    sections = [
        f"# {title}\n",
        table2_section(ps),
        table3_section(ps, blocks=blocks),
        table4_section(ps, records=records),
        prefetch_section(p=max(ps), blocks=blocks),
        redundancy_section(p=max(ps)),
        observability_section(p=max(ps), blocks=blocks),
    ]
    return "\n".join(sections)
