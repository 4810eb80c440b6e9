"""E2 — Table 2: basic Bridge operation costs.

Regenerates the paper's cost formulas by measuring Open / Read / Write /
Create / Delete through the naive view across p, then fitting the same
functional forms (Create ~ a + b*p; Read ~ a + b*p/n; Delete ~ a*n/p).

Paper (Table 2):  Delete 20*n/p ms | Create 145 + 17.5p ms | Open 80 ms
                  Read 9.0 + 500p/n ms | Write 31 ms
"""

from _bench import Bench, paper_ps
from repro.analysis import fit_line
from repro.harness.experiments import measure_table2

FILE_BLOCKS = 256


def create_fit(by_p):
    return fit_line([int(p) for p in by_p],
                    [row["create_ms"] for row in by_p.values()])


def sweep(quick):
    by_p = {str(p): measure_table2(p, file_blocks=FILE_BLOCKS)
            for p in paper_ps(quick)}
    intercept, slope = create_fit(by_p)
    return {
        "file_blocks": FILE_BLOCKS,
        "create_fit_ms": {"intercept": intercept, "slope": slope},
        "paper_create_fit_ms": {"intercept": 145.0, "slope": 17.5},
        "by_p": by_p,
    }


def check(document):
    rows = list(document["by_p"].values())
    narrow, wide = rows[0], rows[-1]
    # Open: near 80 ms and roughly constant in p
    assert 40.0 < narrow["open_ms"] < 160.0
    assert abs(wide["open_ms"] - narrow["open_ms"]) < 0.5 * narrow["open_ms"]
    # Read: beats the 15 ms disk latency thanks to track buffering
    assert narrow["read_ms_per_block"] < 15.0
    # Write: near 31 ms, independent of p
    assert 25.0 < narrow["write_ms_per_block"] < 50.0
    assert abs(wide["write_ms_per_block"]
               - narrow["write_ms_per_block"]) < 6.0
    # Create: linear in p with a positive slope near the paper's 17.5
    assert 8.0 < document["create_fit_ms"]["slope"] < 30.0
    # Delete: ~20 ms per block per LFS; total drops as p grows
    assert 14.0 < narrow["delete_ms_per_block_per_lfs"] < 30.0
    assert wide["delete_ms_total"] < narrow["delete_ms_total"]


BENCH = Bench("table2", sweep, check)
test_table2_basic_ops = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
