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
    rows = []
    for members in (1, 2, 4, 8, 16, 32):
        sim = Simulator(seed=23)
        array = StorageArray(sim, members, capacity_blocks=4096,
                             transfer_time=0.012)

        def reader():
            for block in range(64):
                yield from array.read(block)

        sim.run_process(reader())
        rows.append(
            (
                members,
                array.service_times.mean * 1e3,
                array.expected_positioning() * 1e3,
                array.transfer_time / members * 1e3,
            )
        )
    return rows


def array_check(rows):
    by_members = {r[0]: r for r in rows}
    # expected positioning strictly grows toward a full rotation
    assert by_members[32][2] > by_members[2][2]
    # measured service tracks seek + E[max] + transfer within 15%
    for members, measured, positioning, transfer in rows:
        predicted = 4.0 + positioning + transfer  # 4 ms seek
        assert abs(measured - predicted) / predicted < 0.15
    # transfer term scales down perfectly
    assert by_members[32][3] == by_members[1][3] / 32


def array_payload(rows):
    return {
        "by_members": {
            str(members): {
                "measured_service_ms": measured,
                "expected_positioning_ms": positioning,
                "transfer_per_block_ms": transfer,
            }
            for members, measured, positioning, transfer in rows
        },
    }


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
    return results


def scheduler_check(results):
    assert results["sstf"] < results["fcfs"]
    assert results["elevator"] < results["fcfs"]


def scheduler_payload(results):
    return {"batch_completion_seconds": dict(results)}


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

        rows[track_blocks] = system.run(body())
    return rows


def track_buffer_check(rows):
    # no buffering: every read pays the disk; the paper's 9 ms needs ~4
    assert rows[1] > 15.0
    assert rows[4] < 10.0
    # monotone improvement with track size
    values = [rows[k] for k in sorted(rows)]
    assert values == sorted(values, reverse=True)


def track_buffer_payload(rows):
    return {
        "seq_read_ms_per_block": {str(k): v for k, v in sorted(rows.items())},
    }


ARRAY = Bench("storage_array", array_sweep, array_check, array_payload)
SCHEDULERS = Bench("schedulers", scheduler_sweep, scheduler_check,
                   scheduler_payload)
TRACK_BUFFER = Bench("track_buffer", track_buffer_sweep, track_buffer_check,
                     track_buffer_payload)
test_storage_array_rotational_latency = ARRAY.test()
test_disk_schedulers = SCHEDULERS.test()
test_track_buffer_size = TRACK_BUFFER.test()

if __name__ == "__main__":
    for bench in (ARRAY, SCHEDULERS, TRACK_BUFFER):
        bench.main()
