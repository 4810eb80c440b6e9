"""Ablation: write-behind in the LFS (section 6's assumption).

"Assuming that the local file systems perform read-ahead and
write-behind, virtually any program that uses the naive interface will
be compute- or communication-bound."  The measured prototype's 31 ms
writes are write-through; this bench turns write-behind on and shows the
naive write path dropping to cache speed — at the usual durability cost
(a flush materializes the deferred device writes).
"""

from _bench import Bench
from repro.config import DEFAULT_CONFIG
from repro.harness import paper_system
from repro.workloads import pattern_chunks, read_to_eof, timed

THROUGH, BEHIND = "write-through (paper)", "write-behind"


def measure(write_behind: bool):
    config = DEFAULT_CONFIG.with_changes(efs_write_behind=write_behind)
    system = paper_system(4, seed=37, config=config)
    client = system.naive_client()
    chunks = pattern_chunks(128)

    def body():
        yield from client.create("wb")
        _, write_time = yield from timed(system, client.write_all("wb", chunks))
        yield from client.open("wb")
        _, read_time = yield from timed(system, read_to_eof(client, "wb"))
        return write_time / 128 * 1e3, read_time / 128 * 1e3

    return system.run(body())


def sweep(quick):
    return {THROUGH: measure(False), BEHIND: measure(True)}


def speedup(results):
    return results[THROUGH][0] / results[BEHIND][0]


def check(results):
    assert speedup(results) > 3
    # reads already benefit from the track buffer in both modes
    assert results[BEHIND][1] < 15.0


def payload(results):
    return {
        "arms": {
            mode: {"write_ms_per_block": write_ms, "read_ms_per_block": read_ms}
            for mode, (write_ms, read_ms) in results.items()
        },
        "write_path_speedup": speedup(results),
    }


BENCH = Bench("write_behind", sweep, check, payload)
test_write_behind_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
