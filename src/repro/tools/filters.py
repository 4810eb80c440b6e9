"""One-to-one filter tools (paper section 5.1).

"Any one-to-one filter will display the same behavior; simple
modifications to the copy tool allow us to perform character translation,
encryption, or lexical analysis on fixed-length lines."  Each filter here
is exactly such a modification: a :class:`~repro.tools.copy.CopyTool`
subclass overriding the per-block ``transform`` hook.  The benches verify
the section's claim that filters run "within a constant factor of the
copy tool's time".
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.tools.copy import CopyTool


def rot13_table() -> bytes:
    """A classic character-translation table (letters rotated by 13)."""
    table = bytearray(range(256))
    for offset in range(26):
        table[ord("a") + offset] = ord("a") + (offset + 13) % 26
        table[ord("A") + offset] = ord("A") + (offset + 13) % 26
    return bytes(table)


class TranslateTool(CopyTool):
    """Character translation on every block (e.g. case folding, rot13)."""

    name = "translate"

    def __init__(self, node, server_port, config, table: bytes) -> None:
        super().__init__(node, server_port, config)
        if len(table) != 256:
            raise ValueError("translation table must have 256 entries")
        self.table = table

    def transform(self, data: bytes, local_block: int, slot: int) -> bytes:
        return data.translate(self.table)

    def transform_cpu(self) -> float:
        return 2.0 * self.config.cpu.tool_record


class EncryptTool(CopyTool):
    """XOR stream 'encryption' with a repeating key.

    Involutive: encrypting twice with the same key restores the original,
    which the tests exploit to verify block order is preserved.
    """

    name = "encrypt"

    def __init__(self, node, server_port, config, key: bytes) -> None:
        super().__init__(node, server_port, config)
        if not key:
            raise ValueError("encryption key must be non-empty")
        self.key = key

    def transform(self, data: bytes, local_block: int, slot: int) -> bytes:
        key = self.key
        return bytes(b ^ key[i % len(key)] for i, b in enumerate(data))

    def transform_cpu(self) -> float:
        return 4.0 * self.config.cpu.tool_record


class LineLexTool(CopyTool):
    """Lexical analysis on fixed-length lines.

    Each block is treated as fixed-length records of ``line_length``
    bytes; every line is normalized (lower-cased, padded) and the worker
    summary counts token occurrences — the "summary information" return
    path of section 5.1.
    """

    name = "lex"

    def __init__(self, node, server_port, config,
                 line_length: int = 80) -> None:
        super().__init__(node, server_port, config)
        if line_length < 1:
            raise ValueError("line length must be positive")
        self.line_length = line_length

    def transform(self, data: bytes, local_block: int, slot: int) -> bytes:
        out = bytearray()
        for offset in range(0, len(data), self.line_length):
            line = data[offset : offset + self.line_length]
            out += line.lower().ljust(len(line), b" ")
        return bytes(out)

    def transform_cpu(self) -> float:
        return 3.0 * self.config.cpu.tool_record

    def summarize(self, summary: Optional[dict], data: bytes,
                  global_block: int) -> dict:
        counts: Dict[bytes, int] = summary or {}
        for word in data.split():
            token = word.strip(b"\x00")
            if token:
                counts[token] = counts.get(token, 0) + 1
        return counts
