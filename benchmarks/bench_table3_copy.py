"""E3/E4 — Table 3 and its figure: copy tool performance.

Regenerates the copy-time column (10 MB file, p = 2..32) and the
records-per-second series plotted beside it.  Default scale is ~1 MB;
REPRO_FULL=1 runs the paper's 10 922-block file.

Paper (Table 3):  p=2: 311.6 s ... p=32: 21.6 s (nearly linear speedup);
figure peaks at 475 records/second.
"""

from _bench import Bench, paper_ps
from repro.analysis import PAPER_COPY_PEAK_RECORDS_PER_SECOND, speedup_series
from repro.harness.experiments import run_copy_experiment


def sweep(quick):
    return {p: run_copy_experiment(p) for p in paper_ps(quick)}


def check(runs):
    # nearly linear speedup
    ps = sorted(runs)
    times = {p: runs[p].elapsed for p in ps}
    for smaller, larger in zip(ps, ps[1:]):
        gain = times[smaller] / times[larger]
        assert gain > 1.5, f"speedup {smaller}->{larger} too weak: {gain:.2f}"
    assert speedup_series(times)[max(ps)] > 0.55 * (max(ps) / min(ps))
    # throughput (the figure) rises monotonically with p
    rates = [runs[p].records_per_second for p in ps]
    assert rates == sorted(rates)


def payload(runs):
    return {
        "blocks": runs[2].blocks,
        "paper_peak_records_per_second": PAPER_COPY_PEAK_RECORDS_PER_SECOND,
        "by_p": {
            str(p): {
                "copy_seconds": run.elapsed,
                "records_per_second": run.records_per_second,
                "paper_seconds": run.paper_seconds,
            }
            for p, run in sorted(runs.items())
        },
    }


BENCH = Bench("table3", sweep, check, payload)
test_table3_copy_tool = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
