"""E11 — the token-circuit saturation analysis (section 6 / [17]).

"With sufficiently large p, the token will eventually be unable to
complete a circuit of the nodes in the time it takes to read and write a
record.  At that point performance should begin to taper off...  32
nodes is clearly well below the point at which the merge phase of the
sort tool would be unable to take advantage of additional parallelism."

This bench merges two pre-sorted files at growing width and compares the
measured records/second curve against the analytic saturation width
(write_time / token_hop_time).
"""

from _bench import PAPER_PS, Bench
from repro.harness.experiments import run_token_saturation
from repro.tools.sort import SortCostModel

MODEL = SortCostModel()


def sweep(quick):
    # The flattening shows only at the widest merges, so quick keeps the
    # widths and halves the records.
    records = 256 if quick else 512
    return {w: run_token_saturation(w, records=records) for w in PAPER_PS}


def check(runs):
    rates = {w: r.records_per_second for w, r in runs.items()}
    # throughput rises with width in the disk-bound regime...
    assert rates[8] > rates[2] * 1.8
    # ...but the relative gain per doubling shrinks as the token binds
    low_gain = rates[8] / rates[4]
    high_gain = rates[32] / rates[16]
    assert high_gain < low_gain
    # and the last doubling is far from 2x
    assert high_gain < 1.6


def payload(runs):
    return {
        "saturation_width": MODEL.saturation_width(),
        "by_width": {
            str(w): {
                "elapsed_seconds": run.elapsed,
                "records_per_second": run.records_per_second,
                "model_records_per_second": 1.0 / MODEL.merge_record_rate(w),
            }
            for w, run in sorted(runs.items())
        },
    }


BENCH = Bench("token_saturation", sweep, check, payload)
test_token_saturation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
