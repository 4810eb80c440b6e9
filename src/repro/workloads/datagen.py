"""Workload generators: keys, records, and text blocks.

The paper's expectation (section 3) is that "sequential access to
relatively large files will overwhelm all other usage patterns"; the
generators here build exactly such files — bulk record files for the sort
tool and text files for the filter/search tools — with deterministic,
seed-controlled contents.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.config import DATA_BYTES_PER_BLOCK
from repro.tools.sort.records import make_record

_WORDS = (
    b"butterfly bridge interleave block disk file parallel server tool "
    b"token merge sort record stripe node process cache hint latency "
    b"chrysalis cronus rochester system data"
).split()


#: Keys are drawn from ``[0, KEY_SPACE)``.
KEY_SPACE = 2**48


def uniform_keys(count: int, seed: int = 0) -> List[int]:
    """Independent uniform keys (the sort benches' default workload)."""
    rng = random.Random(seed)
    return [rng.randrange(KEY_SPACE) for _ in range(count)]


def record_chunks(keys: List[int], seed: int = 0) -> List[bytes]:
    """One sortable record (= one block data area) per key, with a
    16-byte random payload."""
    rng = random.Random(seed)
    chunks = []
    for key in keys:
        payload = bytes(rng.randrange(33, 127) for _ in range(16))
        chunks.append(make_record(key, payload))
    return chunks


def text_chunks(block_count: int, seed: int = 0,
                needle: Optional[bytes] = None,
                needle_every: int = 0) -> List[bytes]:
    """Blocks of 80-byte text lines; optionally plant ``needle`` in
    every ``needle_every``-th block (for grep tests)."""
    line_length = 80
    rng = random.Random(seed)
    chunks = []
    for index in range(block_count):
        lines = []
        while sum(len(l) for l in lines) < DATA_BYTES_PER_BLOCK - line_length:
            words: List[bytes] = []
            while sum(len(w) + 1 for w in words) < line_length - 12:
                words.append(_WORDS[rng.randrange(len(_WORDS))])
            line = b" ".join(words)[: line_length - 1].ljust(line_length - 1) + b"\n"
            lines.append(line)
        block = b"".join(lines)[:DATA_BYTES_PER_BLOCK]
        if needle and needle_every and index % needle_every == 0:
            offset = rng.randrange(0, len(block) - len(needle))
            block = block[:offset] + needle + block[offset + len(needle):]
        chunks.append(block)
    return chunks


def pattern_chunks(block_count: int, stamp: bytes = b"BLK") -> List[bytes]:
    """Self-identifying blocks (``stamp`` + index), for copy verification."""
    return [
        (stamp + b"-%08d|" % index) * 3
        for index in range(block_count)
    ]
