"""E5/E6 — Table 4 and its figures: merge-sort tool performance.

Regenerates the local-sort / merge / total breakdown and the
records-per-second series.  The in-core buffer is scaled with the file
(c = 512 at full scale) so the run structure — and therefore the local
phase's superlinear speedup, where each doubling of p removes one local
merge pass — matches the paper's.

Paper (Table 4, minutes):
    p=2: 350 + 17 = 367 | p=8: 24 + 11 = 35 | p=32: 0.67 + 4.45 = 5.12
Local sort is superlinear; the merge phase improves only modestly
(17 -> 4.45 min over 2 -> 32 processors); figure peaks at 35 records/s.
"""

from _bench import Bench, fields, paper_ps
from repro.analysis import (
    PAPER_SORT_PEAK_RECORDS_PER_SECOND,
    PAPER_TABLE4_SORT_MINUTES,
    format_table,
    speedup_series,
)
from repro.harness.experiments import default_sort_records, run_sort_experiment


def buffer_records(records):
    # keep records/buffer near the paper's 10922/512 so pass counts match
    return max(8, round(records * 512 / 10922))


def sweep(quick):
    records = default_sort_records() // (2 if quick else 1)
    return {
        p: run_sort_experiment(p, records=records,
                               buffer_records=buffer_records(records))
        for p in paper_ps(quick)
    }


def check(runs):
    ps = sorted(runs)
    local = {p: runs[p].local_sort_seconds for p in ps}
    merge = {p: runs[p].merge_seconds for p in ps}
    # local phase: superlinear over the range where merge passes disappear
    for smaller, larger in zip(ps[:3], ps[1:4]):
        gain = local[smaller] / local[larger]
        assert gain > larger / smaller, (
            f"local sort {smaller}->{larger} not superlinear: {gain:.2f}"
        )
    # merge phase: improves overall, but sublinearly (paper: 3.8x over 16x)
    assert merge[ps[0]] > merge[ps[-1]]
    assert merge[ps[0]] / merge[ps[-1]] < (ps[-1] / ps[0]) * 0.8
    # totals: monotone decreasing in p
    totals = [runs[p].total_seconds for p in ps]
    assert totals == sorted(totals, reverse=True)
    # throughput figure: monotone increasing
    rates = [runs[p].records_per_second for p in ps]
    assert rates == sorted(rates)


def render(runs):
    records = runs[2].records
    scale = records / 10922
    rows = []
    for p, run in sorted(runs.items()):
        paper = PAPER_TABLE4_SORT_MINUTES[p]
        rows.append(
            [
                p,
                run.local_sort_seconds,
                paper[0] * 60 * scale,
                run.merge_seconds,
                paper[1] * 60 * scale,
                run.total_seconds,
                run.records_per_second,
            ]
        )
    table = format_table(
        ["p", "local sort (s)", "paper (scaled)", "merge (s)",
         "paper (scaled)", "total (s)", "records/s"],
        rows,
        title=(
            f"Table 4: merge sort, {records} records "
            f"({scale:.2f}x of the paper's file), "
            f"c = {buffer_records(records)}"
        ),
    )
    peak = max(run.records_per_second for run in runs.values())
    local = speedup_series({p: r.local_sort_seconds for p, r in runs.items()})
    merge = speedup_series({p: r.merge_seconds for p, r in runs.items()})
    return table + (
        f"\n\nfigure series: peak {peak:.1f} records/s measured vs "
        f"{PAPER_SORT_PEAK_RECORDS_PER_SECOND:.0f} in the paper (p = 32)"
        f"\nlocal-sort speedup series: "
        f"{ {p: round(v, 1) for p, v in local.items()} }"
        f"\nmerge speedup series:      "
        f"{ {p: round(v, 1) for p, v in merge.items()} }"
    )


def payload(runs):
    records = runs[2].records
    return {
        "records": records,
        "buffer_records": buffer_records(records),
        "by_p": {
            str(p): fields(
                run, "local_sort_seconds", "merge_seconds", "total_seconds",
                "records_per_second", "paper_minutes",
            )
            for p, run in sorted(runs.items())
        },
    }


BENCH = Bench("table4", sweep, check, render, payload)
test_table4_sort_tool = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
