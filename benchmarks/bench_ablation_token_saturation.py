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


def sweep(quick):
    # The flattening shows only at the widest merges, so quick keeps the
    # widths and halves the records.
    records = 256 if quick else 512
    return {
        "saturation_width": SortCostModel().saturation_width(),
        "by_width": {str(w): run_token_saturation(w, records=records)
                     for w in PAPER_PS},
    }


def check(document):
    rates = {int(w): row["records_per_second"]
             for w, row in document["by_width"].items()}
    # throughput rises with width in the disk-bound regime...
    assert rates[8] > rates[2] * 1.8
    # ...but the relative gain per doubling shrinks as the token binds
    low_gain = rates[8] / rates[4]
    high_gain = rates[32] / rates[16]
    assert high_gain < low_gain
    # and the last doubling is far from 2x
    assert high_gain < 1.6


BENCH = Bench("token_saturation", sweep, check)
test_token_saturation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
