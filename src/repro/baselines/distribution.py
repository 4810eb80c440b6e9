"""Block-distribution strategies (paper section 3's design argument).

Three ways to place the blocks of a file on p nodes:

* **round robin** (Bridge's choice) — block n on node (n + k) mod p.
  Guarantees any p consecutive blocks occupy p distinct nodes.
* **chunking** (Gamma's option) — the file is split into exactly p
  contiguous chunks.  Requires a-priori knowledge of the file size;
  growing the file forces a global reorganization.
* **hashing** (Gamma's other option) — node = hash(n) mod p.  Randomizes
  placement, but "the probability that p consecutive blocks would be on
  p different processors would be extremely low".

The analytic functions quantify that argument (they back the E9 ablation
bench): expected distinct nodes touched by a window of p consecutive
blocks, the exact probability all p are distinct (the birthday bound
p!/p^p), and the reorganization cost of appending to a chunked file.
"""

from __future__ import annotations

import math
import zlib

# ---------------------------------------------------------------------------
# Placements
# ---------------------------------------------------------------------------


class RoundRobinPlacement:
    """Bridge's strategy: block n -> node n mod p."""

    name = "round-robin"

    def __init__(self, nodes: int) -> None:
        if nodes < 1:
            raise ValueError("need at least one node")
        self.nodes = nodes

    def node_of(self, block: int, file_size: int) -> int:
        return block % self.nodes

    def append_moves(self, old_size: int, new_size: int) -> int:
        """Blocks that must move when growing from old_size to new_size."""
        return 0


class ChunkedPlacement:
    """Gamma-style chunking: p equal contiguous chunks of the final size."""

    name = "chunked"

    def __init__(self, nodes: int) -> None:
        if nodes < 1:
            raise ValueError("need at least one node")
        self.nodes = nodes

    def node_of(self, block: int, file_size: int) -> int:
        if file_size <= 0:
            return 0
        chunk = math.ceil(file_size / self.nodes)
        return min(block // chunk, self.nodes - 1)

    def append_moves(self, old_size: int, new_size: int) -> int:
        """Blocks whose home changes when the file grows (the "global
        reorganization involving every LFS")."""
        moves = 0
        for block in range(old_size):
            if self.node_of(block, old_size) != self.node_of(block, new_size):
                moves += 1
        return moves


class HashedPlacement:
    """Gamma-style hashing on the block number."""

    name = "hashed"

    def __init__(self, nodes: int, salt: int = 0) -> None:
        if nodes < 1:
            raise ValueError("need at least one node")
        self.nodes = nodes
        self.salt = salt

    def node_of(self, block: int, file_size: int) -> int:
        digest = zlib.crc32(
            (block * 0x9E3779B97F4A7C15 + self.salt).to_bytes(16, "little")
        )
        return digest % self.nodes

    def append_moves(self, old_size: int, new_size: int) -> int:
        return 0


PLACEMENTS = {
    "round-robin": RoundRobinPlacement,
    "chunked": ChunkedPlacement,
    "hashed": HashedPlacement,
}


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def prob_all_distinct_hashed(p: int, window: int) -> float:
    """P[`window` hashed blocks hit distinct nodes] = p!/(p-w)!/p^w."""
    if window > p:
        return 0.0
    probability = 1.0
    for i in range(window):
        probability *= (p - i) / p
    return probability


def expected_distinct_nodes_hashed(p: int, window: int) -> float:
    """E[distinct nodes touched by `window` hashed blocks]
    = p(1 - (1-1/p)^window)."""
    return p * (1.0 - (1.0 - 1.0 / p) ** window)


def measured_batch_parallelism(placement, file_size: int, window: int) -> float:
    """Average distinct nodes over all aligned windows of a real placement.

    This is the *effective parallelism* of lock-step multi-block access:
    a window hitting only d distinct nodes moves its blocks in ceil(w/d)
    rounds at best.
    """
    if file_size < window or window < 1:
        return 0.0
    totals = 0
    count = 0
    for base in range(0, file_size - window + 1, window):
        nodes = {placement.node_of(base + i, file_size) for i in range(window)}
        totals += len(nodes)
        count += 1
    return totals / count


def sequential_window_rounds(placement, file_size: int, window: int) -> float:
    """Average lock-step rounds needed per window (collision penalty).

    Round-robin achieves the ideal 1.0; hashing pays for collisions; a
    chunked file degenerates to `window` rounds whenever a window falls
    inside one chunk.
    """
    if file_size < window or window < 1:
        return 0.0
    total_rounds = 0
    count = 0
    for base in range(0, file_size - window + 1, window):
        per_node: dict = {}
        for i in range(window):
            node = placement.node_of(base + i, file_size)
            per_node[node] = per_node.get(node, 0) + 1
        total_rounds += max(per_node.values())
        count += 1
    return total_rounds / count
