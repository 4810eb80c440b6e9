"""E7 — section 5.1's filter claim.

"Any of the filter programs produced by inserting such transformations
should run within a constant factor of the copy tool's time."  Runs the
plain copy and the three filters over the same file and checks the
factor.
"""

from _bench import Bench
from repro.harness import paper_system
from repro.harness.experiments import default_blocks
from repro.tools import CopyTool, EncryptTool, LineLexTool, TranslateTool, rot13_table
from repro.workloads import build_file, text_chunks


def file_blocks():
    return max(128, default_blocks() // 4)


def sweep(quick):
    system = paper_system(8, seed=17)
    build_file(system, "src", text_chunks(file_blocks(), seed=17))
    target = (system.client_node, system.bridge.port, system.config)
    tools = {
        "copy": CopyTool(*target),
        "translate": TranslateTool(*target, table=rot13_table()),
        "encrypt": EncryptTool(*target, key=b"k3y"),
        "lex": LineLexTool(*target, line_length=80),
    }
    return {
        name: system.run(tool.run("src", f"out-{name}"), name=f"filter-{name}")
        for name, tool in tools.items()
    }


def check(results):
    base = results["copy"]
    for name, result in results.items():
        factor = result.elapsed / base.elapsed
        assert factor < 1.5, f"{name} not within a constant factor: {factor:.2f}"
        assert result.total_blocks == file_blocks()


def payload(results):
    base = results["copy"]
    return {
        "p": 8,
        "blocks": file_blocks(),
        "tools": {
            name: {
                "seconds": result.elapsed,
                "factor_vs_copy": result.elapsed / base.elapsed,
                "blocks_per_second": result.blocks_per_second,
            }
            for name, result in results.items()
        },
    }


BENCH = Bench("filters", sweep, check, payload)
test_filters_constant_factor_of_copy = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
