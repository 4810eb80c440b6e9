"""Ablation: disk-address hints in the local sort.

Section 4.3's hints are what keep the stateless EFS fast: without them,
every interior access walks the doubly-linked block list from the
beginning or end.  The paper's measured local-sort constant is far
larger than raw I/O predicts; running our local sort with hints disabled
shows how expensive hint-less linked-list access gets — the most likely
explanation for that constant.
"""

from _bench import Bench
from repro.analysis import format_table
from repro.config import DEFAULT_CONFIG
from repro.harness import paper_system
from repro.tools import SortTool
from repro.workloads import build_record_file, uniform_keys


def run_one(use_hints: bool, records: int = 640, p: int = 2):
    config = DEFAULT_CONFIG.with_changes(sort_buffer_records=24)
    system = paper_system(p, seed=19, config=config)
    build_record_file(system, "u", uniform_keys(records, seed=19))
    tool = SortTool(
        system.client_node, system.bridge.port, system.config,
        use_hints=use_hints,
    )
    return system.run(tool.run("u", "s"), name="hint-ablation")


def sweep(quick):
    return {"hints on": run_one(True), "hints off": run_one(False)}


def slowdown(results):
    return (results["hints off"].local_sort_time
            / results["hints on"].local_sort_time)


def check(results):
    assert slowdown(results) > 2.0
    assert results["hints off"].records == results["hints on"].records


def render(results):
    return format_table(
        ["hints", "local sort (s)", "merge (s)", "total (s)", "records/s"],
        [[label, r.local_sort_time, r.merge_time, r.total_time,
          r.records / r.total_time]
         for label, r in results.items()],
        title="Local sort with and without disk-address hints (p = 2, 640 records)",
    ) + (
        f"\n\nhint-less slowdown: {slowdown(results):.1f}x "
        "on the local phase — hint-less linked-list walks are the likely "
        "source of the paper's very large local-sort constant"
    )


def payload(results):
    return {
        "arms": {
            label: {
                "local_sort_seconds": r.local_sort_time,
                "merge_seconds": r.merge_time,
                "total_seconds": r.total_time,
                "records": r.records,
            }
            for label, r in results.items()
        },
        "hintless_local_slowdown": slowdown(results),
    }


BENCH = Bench("localsort_hints", sweep, check, render, payload)
test_localsort_hint_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
