"""E17 / S20 — the Bridge Server bottleneck and its partitioned remedy.

Section 4.1: "If requests to the server are frequent enough to cause a
bottleneck, the same functionality could be provided by a distributed
collection of processes."  This bench drives many concurrent naive
clients through a *mixed* workload — create, sequential write, a full
sequential read-back, a strided list read, and a random
read-modify-write — against 1, 2, and 4 hash-partitioned Bridge Servers
and measures the makespan and the aggregate naive-view throughput.

Each row also carries the S20 routing model's speedup bound
(:func:`repro.analysis.models.fabric_speedup_bound`): with a finite set of
names hashed over k partitions the best case is sum/max of the
per-partition loads, so the measured speedup must sit at or below it.

Also runnable as a script (the CI smoke job)::

    python benchmarks/bench_ablation_server_scaling.py --quick
"""

from _bench import Bench
from repro.analysis.models import fabric_speedup_bound
from repro.harness.builders import BridgeSystem
from repro.workloads import read_to_eof

CLIENTS = 12
BLOCKS = 12
SERVER_COUNTS = (1, 2, 4)


def run_mixed(servers: int, clients: int = CLIENTS,
              blocks: int = BLOCKS, seed: int = 73,
              ring: bool = False) -> dict:
    """One arm: ``clients`` concurrent mixed-workload naive clients.

    ``ring=True`` routes over the S22 consistent-hash ring instead of
    the static modulo table — same fabric, same workload, different
    name-to-partition map (and therefore a different load-balance
    bound, computed from the actual ring arcs).
    """
    system = BridgeSystem(4, seed=seed, bridge_server_count=servers,
                          elastic=ring)
    names = [f"c{i}" for i in range(clients)]
    moved = [0]

    def worker(index, client):
        name = names[index]
        yield from client.create(name)
        for _b in range(blocks):
            yield from client.seq_write(name, b"w" * 64)
            moved[0] += 1
        yield from client.open(name)
        chunks = yield from read_to_eof(client, name)
        moved[0] += len(chunks)
        # Mixed tail: a strided list read plus a random RMW pair.
        picked = yield from client.list_read(name, list(range(0, blocks, 3)))
        moved[0] += len(picked)
        target = (index * 5) % blocks
        yield from client.random_write(name, target, b"rw" * 8)
        data = yield from client.random_read(name, target)
        assert data.startswith(b"rw")
        moved[0] += 2

    handles = [system.naive_client() for _ in range(clients)]
    processes = [
        system.client_node.spawn(worker(i, c), name=f"client{i}")
        for i, c in enumerate(handles)
    ]
    system.sim.run()
    assert all(p.done for p in processes)
    makespan = system.sim.now
    return {
        "servers": servers,
        "clients": clients,
        "blocks": blocks,
        "routing": "ring" if ring else "modulo",
        "makespan_seconds": makespan,
        "blocks_moved": moved[0],
        "throughput_blocks_per_second": moved[0] / makespan,
        "route_bound": fabric_speedup_bound(
            names, servers,
            ring=system.fabric.ring if ring else None,
        ),
    }


def sweep(quick):
    # 8 client names hash 4/4 over two partitions, so even the smoke
    # arm has real routing parallelism to show.
    counts, size = (((1, 2), {"clients": 8, "blocks": 4}) if quick
                    else (SERVER_COUNTS, {}))
    return ([run_mixed(servers, **size) for servers in counts]
            + [run_mixed(counts[-1], ring=True, **size)])


def check(rows) -> None:
    base = rows[0]
    modulo = [row for row in rows if row["routing"] == "modulo"]
    for row in rows:
        # Same logical work in every arm; only the makespan moves.
        assert row["blocks_moved"] == base["blocks_moved"], row
        speedup = base["makespan_seconds"] / row["makespan_seconds"]
        # Partitioning cannot beat the routing model's load-balance bound
        # (epsilon for float division).
        assert speedup <= row["route_bound"] + 1e-9, (speedup, row)
    # Aggregate naive-view throughput improves monotonically with the
    # partition count — the central server was the bottleneck.
    throughputs = [row["throughput_blocks_per_second"] for row in modulo]
    assert all(b > a for a, b in zip(throughputs, throughputs[1:])), throughputs
    if len(modulo) >= 3:
        assert (modulo[0]["makespan_seconds"]
                / modulo[-1]["makespan_seconds"]) > 1.6
    # The ring arm really parallelizes too: it beats the single-server
    # arm, within its own (arc-derived) route bound.
    for row in rows:
        if row["routing"] != "ring":
            continue
        assert base["makespan_seconds"] / row["makespan_seconds"] > 1.0, row


def payload(rows) -> dict:
    base = rows[0]

    def by_servers(routing):
        return {
            str(row["servers"]): {
                **{key: row[key]
                   for key in ("makespan_seconds", "blocks_moved",
                               "throughput_blocks_per_second")},
                "speedup": base["makespan_seconds"] / row["makespan_seconds"],
                "route_bound": row["route_bound"],
            }
            for row in rows if row["routing"] == routing
        }

    return {
        "clients": base["clients"],
        "blocks_per_file": base["blocks"],
        "workload": "create + seq write + seq read-back + list read + random rmw",
        "by_servers": by_servers("modulo"),
        "ring": by_servers("ring"),
    }


BENCH = Bench("server_scaling", sweep, check, payload)
test_server_scaling = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
