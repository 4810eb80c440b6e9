"""Noncontiguous access patterns (S17): global block lists.

Bridge's interface is block-addressed (section 4.1), so an access
pattern is simply a list of global block numbers.  These builders make
the shapes the list-I/O and two-phase experiments sweep: a strided
column walk, a random scatter and a hotspot.  Feed the list straight
into ``BridgeClient.list_read``, ``TwoPhaseIO.read`` or a loop of naive
``random_read`` calls.
"""

from __future__ import annotations

import random
from typing import List


def strided_pattern(start: int, stride: int, count: int) -> List[int]:
    """Regular strided scatter: one block every ``stride``.

    The canonical noncontiguous shape (a column walk over a row-major
    matrix).
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    return [start + i * stride for i in range(count)]


def scatter_pattern(file_blocks: int, count: int, seed: int = 0) -> List[int]:
    """Random scatter: ``count`` distinct blocks in ascending order.

    The worst case for request coalescing — no adjacency to exploit —
    which makes it the control arm of the list-I/O ablation.
    """
    if file_blocks < 1:
        raise ValueError(f"file_blocks must be >= 1, got {file_blocks}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > file_blocks:
        raise ValueError(
            f"cannot pick {count} distinct blocks from {file_blocks}"
        )
    rng = random.Random(seed)
    return sorted(rng.sample(range(file_blocks), count))


def hotspot_pattern(file_blocks: int, count: int, hot_fraction: float = 0.1,
                    hot_weight: float = 0.9, seed: int = 0) -> List[int]:
    """Hotspot scatter: most accesses land in a small hot region.

    ``hot_fraction`` of the file receives ``hot_weight`` of the accesses
    (duplicates allowed — the point is that list I/O dedups them while
    the naive path pays per access).
    """
    if file_blocks < 1:
        raise ValueError(f"file_blocks must be >= 1, got {file_blocks}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0 < hot_fraction <= 1:
        raise ValueError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
    if not 0 <= hot_weight <= 1:
        raise ValueError(f"hot_weight must be in [0, 1], got {hot_weight}")
    hot_blocks = max(1, int(file_blocks * hot_fraction))
    rng = random.Random(seed)
    pattern = []
    for _ in range(count):
        if rng.random() < hot_weight:
            pattern.append(rng.randrange(hot_blocks))
        else:
            pattern.append(rng.randrange(file_blocks))
    return pattern
