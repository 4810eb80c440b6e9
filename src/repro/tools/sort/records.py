"""Record format for the sort tool.

"For the sake of simplicity we assume that the records to be sorted are
the same size as a disk block" (section 5.2) — one record is one 960-byte
data area.  The sort key is the first 8 bytes, compared as an unsigned
big-endian integer (so byte-wise comparison of the raw prefix agrees with
numeric comparison of the key).
"""

from __future__ import annotations

import struct
from repro.config import DATA_BYTES_PER_BLOCK

KEY_BYTES = 8
_KEY_FMT = ">Q"
_KEY = struct.Struct(_KEY_FMT)


def make_record(key: int, payload: bytes = b"") -> bytes:
    """Build one record: 8-byte big-endian key + payload, NUL-padded."""
    if not 0 <= key < 2**64:
        raise ValueError(f"key {key} outside unsigned 64-bit range")
    body = struct.pack(_KEY_FMT, key) + payload
    if len(body) > DATA_BYTES_PER_BLOCK:
        raise ValueError(
            f"record of {len(body)} bytes exceeds {DATA_BYTES_PER_BLOCK}"
        )
    return body.ljust(DATA_BYTES_PER_BLOCK, b"\x00")


def key_of(record: bytes) -> int:
    """Extract the sort key of a record."""
    return _KEY.unpack_from(record)[0]
