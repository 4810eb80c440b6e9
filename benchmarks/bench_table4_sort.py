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

from _bench import Bench, paper_ps
from repro.analysis import PAPER_SORT_PEAK_RECORDS_PER_SECOND, is_superlinear
from repro.harness.experiments import default_sort_records, run_sort_experiment


def buffer_records(records):
    # keep records/buffer near the paper's 10922/512 so pass counts match
    return max(8, round(records * 512 / 10922))


def sweep(quick):
    records = default_sort_records() // (2 if quick else 1)
    return {
        "records": records,
        "buffer_records": buffer_records(records),
        "paper_peak_records_per_second": PAPER_SORT_PEAK_RECORDS_PER_SECOND,
        "by_p": {
            str(p): run_sort_experiment(
                p, records=records, buffer_records=buffer_records(records))
            for p in paper_ps(quick)
        },
    }


def check(document):
    runs = {int(p): row for p, row in document["by_p"].items()}
    ps = sorted(runs)
    local = {p: runs[p]["local_sort_seconds"] for p in ps[:4]}
    merge = {p: runs[p]["merge_seconds"] for p in ps}
    # local phase: superlinear over the range where merge passes disappear
    assert is_superlinear(local), local
    # merge phase: improves overall, but sublinearly (paper: 3.8x over 16x)
    assert merge[ps[0]] > merge[ps[-1]]
    assert merge[ps[0]] / merge[ps[-1]] < (ps[-1] / ps[0]) * 0.8
    # totals: monotone decreasing in p
    totals = [runs[p]["total_seconds"] for p in ps]
    assert totals == sorted(totals, reverse=True)
    # throughput figure: monotone increasing
    rates = [runs[p]["records_per_second"] for p in ps]
    assert rates == sorted(rates)


BENCH = Bench("table4", sweep, check)
test_table4_sort_tool = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
