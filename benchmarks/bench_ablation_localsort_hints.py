"""Ablation: disk-address hints in the local sort.

Section 4.3's hints are what keep the stateless EFS fast: without them,
every interior access walks the doubly-linked block list from the
beginning or end.  The paper's measured local-sort constant is far
larger than raw I/O predicts; running our local sort with hints disabled
shows how expensive hint-less linked-list access gets — the most likely
explanation for that constant.
"""

from _bench import Bench
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
    result = system.run(tool.run("u", "s"), name="hint-ablation")
    return {
        "local_sort_seconds": result.local_sort_time,
        "merge_seconds": result.merge_time,
        "total_seconds": result.total_time,
        "records": result.records,
    }


def sweep(quick):
    arms = {"hints on": run_one(True), "hints off": run_one(False)}
    return {
        "arms": arms,
        "hintless_local_slowdown": (arms["hints off"]["local_sort_seconds"]
                                    / arms["hints on"]["local_sort_seconds"]),
    }


def check(document):
    arms = document["arms"]
    assert document["hintless_local_slowdown"] > 2.0
    assert arms["hints off"]["records"] == arms["hints on"]["records"]


BENCH = Bench("localsort_hints", sweep, check)
test_localsort_hint_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
