"""Ablations on the storage substrate itself.

1. **Storage arrays** (section 2): synchronized spindles "maximize
   rotational latency: each operation must wait for the most poorly
   positioned disk."  Measured E[positioning] must follow d/(d+1) of a
   rotation while per-block transfer shrinks.

2. **Disk scheduling** under the geometric (seek + rotation) model:
   FCFS vs SSTF vs LOOK on a scattered batch — the knob the paper's flat
   15 ms disks hide.

3. **Track-buffer size**: the full-track buffering that makes Table 2's
   sequential read (9 ms) beat the 15 ms device latency.
"""

from _bench import Bench
from repro.config import DEFAULT_CONFIG
from repro.harness import BridgeSystem
from repro.sim import Simulator
from repro.storage import (
    SimulatedDisk,
    StorageArray,
    make_scheduler,
    wren_geometric,
)
from repro.workloads import pattern_chunks, read_to_eof, timed

# ---------------------------------------------------------------------------
# Storage array rotational latency
# ---------------------------------------------------------------------------


def array_sweep(quick):
    rows = {}
    for members in (1, 2, 4, 8, 16, 32):
        sim = Simulator(seed=23)
        array = StorageArray(sim, members, capacity_blocks=4096,
                             transfer_time=0.012)

        def reader():
            for block in range(64):
                yield from array.read(block)

        sim.run_process(reader())
        rows[str(members)] = {
            "measured_service_ms": array.service_times.mean * 1e3,
            "expected_positioning_ms": array.expected_positioning() * 1e3,
            "transfer_per_block_ms": array.transfer_time / members * 1e3,
        }
    return {"by_members": rows}


def array_check(document):
    rows = document["by_members"]
    # expected positioning strictly grows toward a full rotation
    assert (rows["32"]["expected_positioning_ms"]
            > rows["2"]["expected_positioning_ms"])
    # measured service tracks seek + E[max] + transfer within 15%
    for row in rows.values():
        predicted = (4.0 + row["expected_positioning_ms"]
                     + row["transfer_per_block_ms"])  # 4 ms seek
        assert abs(row["measured_service_ms"] - predicted) / predicted < 0.15
    # transfer term scales down perfectly
    assert (rows["32"]["transfer_per_block_ms"]
            == rows["1"]["transfer_per_block_ms"] / 32)


# ---------------------------------------------------------------------------
# Schedulers on a geometric disk
# ---------------------------------------------------------------------------


def scheduler_sweep(quick):
    results = {}
    for name in ("fcfs", "sstf", "elevator"):
        sim = Simulator(seed=29)
        params, latency = wren_geometric(capacity_blocks=16384)
        disk = SimulatedDisk(sim, params, latency, scheduler=make_scheduler(name))
        rng = sim.random.stream("batch")
        blocks = [rng.randrange(16384) for _ in range(64)]

        def reader(block):
            yield from disk.read(block)

        for block in blocks:
            sim.spawn(reader(block))
        sim.run()
        results[name] = sim.now
    return {"batch_completion_seconds": results}


def scheduler_check(document):
    results = document["batch_completion_seconds"]
    assert results["sstf"] < results["fcfs"]
    assert results["elevator"] < results["fcfs"]


# ---------------------------------------------------------------------------
# Track buffer size
# ---------------------------------------------------------------------------


def track_buffer_sweep(quick):
    rows = {}
    for track_blocks in (1, 2, 4, 8):
        config = DEFAULT_CONFIG.with_changes(efs_track_buffer_blocks=track_blocks)
        system = BridgeSystem(2, seed=31, config=config)
        client = system.naive_client()
        chunks = pattern_chunks(128)

        def body():
            yield from client.create("t")
            yield from client.write_all("t", chunks)
            yield from client.open("t")
            _, seconds = yield from timed(system, read_to_eof(client, "t"))
            return seconds / 128 * 1e3

        rows[str(track_blocks)] = system.run(body())
    return {"seq_read_ms_per_block": rows}


def track_buffer_check(document):
    rows = document["seq_read_ms_per_block"]
    # no buffering: every read pays the disk; the paper's 9 ms needs ~4
    assert rows["1"] > 15.0
    assert rows["4"] < 10.0
    # monotone improvement with track size
    values = list(rows.values())
    assert values == sorted(values, reverse=True)


ARRAY = Bench("storage_array", array_sweep, array_check)
SCHEDULERS = Bench("schedulers", scheduler_sweep, scheduler_check)
TRACK_BUFFER = Bench("track_buffer", track_buffer_sweep, track_buffer_check)
test_storage_array_rotational_latency = ARRAY.test()
test_disk_schedulers = SCHEDULERS.test()
test_track_buffer_size = TRACK_BUFFER.test()

if __name__ == "__main__":
    for bench in (ARRAY, SCHEDULERS, TRACK_BUFFER):
        bench.main()
