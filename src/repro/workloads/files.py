"""File builders: install workloads into a Bridge system."""

from __future__ import annotations

from typing import List

from repro.workloads.datagen import record_chunks


def build_file(system, name: str, chunks: List[bytes], width=None,
               node_slots=None, start: int = 0):
    """Create ``name`` and write every chunk through the naive view.

    Returns the file id.  Runs the simulation to completion, so call it
    during experiment setup (measurements should use elapsed-time deltas).
    """
    client = system.naive_client()

    def body():
        file_id = yield from client.create(
            name, width=width, node_slots=node_slots, start=start
        )
        yield from client.write_all(name, chunks)
        return file_id

    return system.run(body(), name=f"build:{name}")


def build_record_file(system, name: str, keys, **create_kwargs):
    """A sortable record file, one record per key (16-byte payloads)."""
    return build_file(system, name, record_chunks(list(keys)), **create_kwargs)


def read_file(system, name: str) -> List[bytes]:
    """Read a whole interleaved file back through the naive view."""
    client = system.naive_client()

    def body():
        return (yield from client.read_all(name))

    return system.run(body(), name=f"read:{name}")


def timed(system, generator):
    """Generator: run ``generator``; returns ``(its result, the
    simulated seconds it took)``."""
    start = system.sim.now
    result = yield from generator
    return result, system.sim.now - start


def read_to_eof(client, name: str):
    """Generator: ``seq_read`` the open file ``name`` to EOF; returns
    the data chunks (``client.read_all`` without the open, so a caller
    can time the stream alone)."""
    chunks = []
    while True:
        block, data = yield from client.seq_read(name)
        if block is None:
            return chunks
        chunks.append(data)


def write_then_stream(system, name: str, blocks: int):
    """Generator: create ``name`` at full width, append ``blocks``
    full-size blocks, then open it and read them back through the naive
    view — the sequential stream the S19 experiments, the obs-overhead
    bench and the spec-equivalence tests all drive."""
    client = system.naive_client()
    yield from client.create(name, width=system.width)
    for i in range(blocks):
        yield from client.seq_write(name, bytes([i % 256]) * 960)
    yield from client.open(name)
    for _ in range(blocks):
        yield from client.seq_read(name)
