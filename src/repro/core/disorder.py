"""Disordered files and off-line reorganization (paper section 3).

"Our prototype implementation supports an explicit linked-list
representation of files that permits arbitrary scattering of blocks at
the expense of very slow random access.  ...  We are considering the
relaxation of interleaving rules for a limited class of files, possibly
with off-line reorganization."

Disordered files are created with ``client.create(name, disordered=True)``:
the Bridge Server scatters appended blocks across arbitrary slots and
keeps the global->local map.  :func:`reorganize` is the off-line step:
it rewrites a disordered file into a fresh, strictly interleaved one,
restoring round-robin's consecutive-blocks-on-distinct-nodes guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.client import BridgeClient


@dataclass
class ReorganizeResult:
    """Outcome of one off-line reorganization."""

    source: str
    dest: str
    blocks: int
    elapsed: float


def reorganize(client: BridgeClient, source: str, dest: str):
    """Rewrite ``source`` (disordered) into a strictly interleaved
    ``dest``, then delete ``source``.

    Generator; drive with ``system.run(reorganize(client, "a", "b"))``.
    This is deliberately the simple off-line procedure: read the file in
    global order (paying the disordered layout's poor locality) and
    append each block to a fresh strict file.
    """
    sim = client.node.machine.sim
    started = sim.now
    opened = yield from client.open(source)
    yield from client.create(dest, width=opened.width)
    for block in range(opened.total_blocks):
        data = yield from client.random_read(source, block)
        yield from client.seq_write(dest, data)
    yield from client.delete(source)
    return ReorganizeResult(
        source=source,
        dest=dest,
        blocks=opened.total_blocks,
        elapsed=sim.now - started,
    )


def scatter_quality(block_map, width: int) -> float:
    """Fraction of width-sized windows of a disordered map that touch all
    ``width`` distinct slots (1.0 = as good as strict interleaving)."""
    if width < 1 or len(block_map) < width:
        return 0.0
    good = 0
    windows = 0
    for base in range(0, len(block_map) - width + 1, width):
        slots = {block_map[base + i][0] for i in range(width)}
        windows += 1
        if len(slots) == width:
            good += 1
    return good / windows if windows else 0.0
