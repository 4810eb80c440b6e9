"""E2 — Table 2: basic Bridge operation costs.

Regenerates the paper's cost formulas by measuring Open / Read / Write /
Create / Delete through the naive view across p, then fitting the same
functional forms (Create ~ a + b*p; Read ~ a + b*p/n; Delete ~ a*n/p).

Paper (Table 2):  Delete 20*n/p ms | Create 145 + 17.5p ms | Open 80 ms
                  Read 9.0 + 500p/n ms | Write 31 ms
"""

from _bench import Bench, fields, paper_ps
from repro.analysis import (
    fit_line,
    table2_create_ms,
    table2_delete_ms,
    table2_open_ms,
    table2_read_ms,
    table2_write_ms,
)
from repro.harness.experiments import measure_table2


def sweep(quick):
    return {p: measure_table2(p, file_blocks=256) for p in paper_ps(quick)}


def create_fit(measurements):
    ps = sorted(measurements)
    return fit_line(ps, [measurements[p].create_ms for p in ps])


def check(measurements):
    narrow, wide = measurements[min(measurements)], measurements[max(measurements)]
    # Open: near 80 ms and roughly constant in p
    assert 40.0 < narrow.open_ms < 160.0
    assert abs(wide.open_ms - narrow.open_ms) < 0.5 * narrow.open_ms
    # Read: beats the 15 ms disk latency thanks to track buffering
    assert narrow.read_ms_per_block < 15.0
    # Write: near 31 ms, independent of p
    assert 25.0 < narrow.write_ms_per_block < 50.0
    assert abs(wide.write_ms_per_block - narrow.write_ms_per_block) < 6.0
    # Create: linear in p with a positive slope near the paper's 17.5
    assert 8.0 < create_fit(measurements)[1] < 30.0
    # Delete: ~20 ms per block per LFS; total drops as p grows
    assert 14.0 < narrow.delete_ms_per_block_per_lfs < 30.0
    assert wide.delete_ms_total < narrow.delete_ms_total


def payload(measurements):
    intercept, slope = create_fit(measurements)
    return {
        "file_blocks": measurements[2].file_blocks,
        "create_fit_ms": {"intercept": intercept, "slope": slope},
        "paper_create_fit_ms": {"intercept": 145.0, "slope": 17.5},
        "by_p": {
            str(p): {
                **fields(
                    m, "open_ms", "read_ms_per_block", "write_ms_per_block",
                    "create_ms", "delete_ms_total",
                    "delete_ms_per_block_per_lfs",
                ),
                "paper_open_ms": table2_open_ms(),
                "paper_read_ms_per_block": table2_read_ms(m.file_blocks, p),
                "paper_write_ms_per_block": table2_write_ms(),
                "paper_create_ms": table2_create_ms(p),
                "paper_delete_ms_total": table2_delete_ms(m.file_blocks, p),
            }
            for p, m in sorted(measurements.items())
        },
    }


BENCH = Bench("table2", sweep, check, payload)
test_table2_basic_ops = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
