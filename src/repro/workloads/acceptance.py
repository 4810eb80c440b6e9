"""The span-baseline acceptance workload (S20).

One deterministic driver that exercises **every** Bridge Server op
handler — the naive view (create / open / sequential + random read and
write / delete), list I/O, the parallel-open view (open / read / write /
close with real worker deposits), the tool view's ``Get Info``, and a
disordered file with its block map — against the default single-server
configuration (the ``acceptance`` preset of
:class:`repro.harness.SystemSpec`).  The exported Chrome trace of this
workload is committed as ``tests/baselines/trace_acceptance.json`` and re-exported by CI
(``scripts/span_baseline.py --check``): any event-sequence drift in the
request path fails the build with the offending subtree, which is the
repo's record-for-record replay guard for refactors of the request
engine.

Everything here must stay deterministic: fixed seed, fixed sizes, no
wall clock.
"""

from __future__ import annotations

from repro.core import JobController, ParallelWorker
from repro.sim import join_all

#: Workload shape (small enough that the committed trace stays compact).
SEQ_BLOCKS = 12
PARALLEL_BLOCKS = 8
PARALLEL_WORKERS = 4
DISORDERED_BLOCKS = 6


def _payload(tag: str, index: int) -> bytes:
    return f"{tag}-{index:04d}|".encode()


def acceptance_driver(system):
    """Drive one pass over every Bridge Server operation.

    Returns a summary dict of observable results so tests can assert the
    workload's data-level outcome alongside its span tree.
    """
    client = system.naive_client()
    summary = {}

    def main():
        # -- naive view ------------------------------------------------
        yield from client.create("alpha")
        for index in range(SEQ_BLOCKS):
            yield from client.seq_write("alpha", _payload("alpha", index))
        yield from client.open("alpha")
        chunks = []
        while True:
            block, data = yield from client.seq_read("alpha")
            if block is None:
                break
            chunks.append(data)
        summary["alpha_blocks"] = len(chunks)
        summary["alpha_ok"] = all(
            chunk.startswith(_payload("alpha", index))
            for index, chunk in enumerate(chunks)
        )
        yield from client.random_write("alpha", 3, _payload("patch", 3))
        summary["alpha_patched"] = (
            yield from client.random_read("alpha", 3)
        ).startswith(_payload("patch", 3))

        # -- list I/O --------------------------------------------------
        strided = yield from client.list_read("alpha", [0, 2, 4, 6])
        summary["list_read_ok"] = all(
            chunk.startswith(_payload("alpha", block))
            for block, chunk in zip([0, 2, 4, 6], strided)
        )
        new_total = yield from client.list_write(
            "alpha",
            [(SEQ_BLOCKS, _payload("tail", 0)), (SEQ_BLOCKS + 1, _payload("tail", 1))],
        )
        summary["list_write_total"] = new_total

        # -- disordered file + block map (tool view reads structure) ---
        yield from client.create("scatter", disordered=True)
        for index in range(DISORDERED_BLOCKS):
            yield from client.seq_write("scatter", _payload("scatter", index))
        block_map = yield from client.get_block_map("scatter")
        summary["scatter_map_len"] = len(block_map)
        yield from client.open("scatter")
        summary["scatter_first"] = (
            yield from client.random_read("scatter", 0)
        ).startswith(_payload("scatter", 0))

        # -- tool view -------------------------------------------------
        info = yield from client.get_info()
        summary["info_width"] = info.width

        # -- delete ----------------------------------------------------
        summary["freed"] = (yield from client.delete("scatter"))
        return summary

    system.run(main())

    # -- parallel-open view (controller + workers + deposits) ----------
    workers = [
        ParallelWorker(system.client_node, index, name="accept-w")
        for index in range(PARALLEL_WORKERS)
    ]
    received = {index: [] for index in range(PARALLEL_WORKERS)}

    def worker_body(worker):
        while True:
            delivery = yield from worker.receive()
            if delivery.eof:
                return
            received[worker.index].append((delivery.block_number, delivery.data))

    def controller_body():
        prep = system.naive_client()
        yield from prep.create("pfile")
        for index in range(PARALLEL_BLOCKS):
            yield from prep.seq_write("pfile", _payload("pfile", index))
        yield from prep.open("pfile")
        controller = JobController(system.client_node, system.bridge.port)
        job = yield from controller.open("pfile", [w.port for w in workers])
        counts = []
        for _round in range(PARALLEL_BLOCKS // PARALLEL_WORKERS + 1):
            counts.append((yield from controller.read()))
        for worker in workers:
            worker.deposit(job, _payload("deposit", worker.index))
        total = yield from controller.write()
        yield from controller.close()
        return counts, total

    worker_processes = [
        system.client_node.spawn(worker_body(worker), name=f"accept-w{worker.index}")
        for worker in workers
    ]

    def parallel_main():
        result = yield from controller_body()
        yield join_all(worker_processes)
        return result

    counts, total = system.run(parallel_main())
    summary["parallel_counts"] = counts
    summary["parallel_total"] = total
    summary["parallel_ok"] = all(
        [block for block, _data in received[index]]
        == [index, index + PARALLEL_WORKERS]
        for index in range(PARALLEL_WORKERS)
    )
    return summary
