"""Copy-tool speedup: a miniature of the paper's Table 3.

Copies the same file with p = 2..16 LFS nodes and prints the time,
throughput, and speedup series next to the paper's published shape.
The full-scale regeneration (10 MB, p up to 32) lives in
benchmarks/bench_table3_copy.py.

Run: python examples/copy_speedup.py [blocks]
"""

import sys

from repro.analysis import (
    PAPER_TABLE3_COPY_SECONDS,
    format_table,
    scaling_table,
)
from repro.harness.experiments import run_copy_experiment


def main(blocks: int = 768) -> None:
    print(f"copy tool sweep: {blocks}-block file ({blocks * 960 // 1024} KiB of data)\n")
    times = {}
    for p in (2, 4, 8, 16):
        times[p] = run_copy_experiment(p, blocks=blocks)["copy_seconds"]

    rows = []
    for point in scaling_table(times, units=blocks):
        paper = PAPER_TABLE3_COPY_SECONDS.get(point.p)
        paper_speedup = (
            PAPER_TABLE3_COPY_SECONDS[2] / paper if paper else float("nan")
        )
        rows.append(
            [
                point.p,
                point.time,
                point.throughput,
                point.speedup,
                paper_speedup,
                point.efficiency,
            ]
        )
    print(
        format_table(
            ["p", "time (s)", "records/s", "speedup", "paper speedup", "efficiency"],
            rows,
            title="Copy tool (measured vs paper Table 3 shape)",
        )
    )
    print(
        "\nThe paper reports 311.6 s -> 21.6 s over p = 2..32 on a 10 MB file"
        " — nearly linear, as above."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 768)
