"""E9 — section 3's distribution-strategy argument, quantified.

Round-robin guarantees p consecutive blocks on p distinct nodes (ideal
for parallel sequential access); hashing makes that "extremely low"
probability; chunking gives no within-window parallelism at all and
forces a global reorganization when a file grows.
"""

from _bench import Bench
from repro.baselines import (
    ChunkedPlacement,
    HashedPlacement,
    RoundRobinPlacement,
    expected_distinct_nodes_hashed,
    measured_batch_parallelism,
    prob_all_distinct_hashed,
    sequential_window_rounds,
)

FILE_BLOCKS = 4096
PS = (4, 8, 16, 32)


def sweep(quick):
    rows = []
    for p in PS:
        placements = {
            "round-robin": RoundRobinPlacement(p),
            "hashed": HashedPlacement(p, salt=p),
            "chunked": ChunkedPlacement(p),
        }
        for name, placement in placements.items():
            rows.append(
                {
                    "p": p,
                    "strategy": name,
                    "distinct": measured_batch_parallelism(placement, FILE_BLOCKS, p),
                    "rounds": sequential_window_rounds(placement, FILE_BLOCKS, p),
                    "p_all_distinct": (
                        1.0 if name == "round-robin"
                        else prob_all_distinct_hashed(p, p) if name == "hashed"
                        else 0.0
                    ),
                    "append_moves": placement.append_moves(
                        FILE_BLOCKS, FILE_BLOCKS + FILE_BLOCKS // 4
                    ),
                }
            )
    return {"file_blocks": FILE_BLOCKS, "rows": rows}


def check(document):
    rows = document["rows"]
    by_key = {(r["p"], r["strategy"]): r for r in rows}
    for p in PS:
        rr = by_key[(p, "round-robin")]
        hashed = by_key[(p, "hashed")]
        chunked = by_key[(p, "chunked")]
        # round robin: perfect windows, free appends
        assert rr["distinct"] == p
        assert rr["rounds"] == 1.0
        assert rr["append_moves"] == 0
        # hashing: measurably worse, vanishing P[all distinct]
        assert hashed["distinct"] < p * 0.85
        assert hashed["rounds"] > 1.2
        assert hashed["p_all_distinct"] < 0.1
        # chunking: no window parallelism, expensive growth
        assert chunked["distinct"] == 1.0
        assert chunked["append_moves"] > 0
        # analytic expectation matches measurement for hashing
        assert abs(
            hashed["distinct"] - expected_distinct_nodes_hashed(p, p)
        ) < 0.6


BENCH = Bench("distribution", sweep, check)
test_distribution_strategies = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
