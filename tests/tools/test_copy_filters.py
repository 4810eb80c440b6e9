"""Tests for the copy tool and the one-to-one filter tools."""

import pytest

from repro.tools import (
    CopyTool,
    EncryptTool,
    GrepTool,
    LineLexTool,
    TranslateTool,
    WordCountTool,
    rot13_table,
)
from repro.workloads import build_file, pattern_chunks, read_file, text_chunks
from tests.tools.conftest import make_system


def run_copy(system, tool_cls=CopyTool, blocks=13, source="src", dest="dst",
             tool_kwargs=None, chunks=None):
    chunks = chunks if chunks is not None else pattern_chunks(blocks)
    build_file(system, source, chunks)
    tool = tool_cls(
        system.client_node, system.bridge.port, system.config,
        **(tool_kwargs or {})
    )

    def body():
        return (yield from tool.run(source, dest))

    result = system.run(body(), name="copytool")
    return chunks, result


# ---------------------------------------------------------------------------
# Copy
# ---------------------------------------------------------------------------


def test_copy_preserves_contents_and_order(system):
    chunks, result = run_copy(system, blocks=13)
    copied = read_file(system, "dst")
    assert len(copied) == 13
    for original, copy in zip(chunks, copied):
        assert copy.startswith(original)
    assert result.total_blocks == 13


def test_copy_empty_file(system):
    chunks, result = run_copy(system, blocks=0)
    assert result.total_blocks == 0
    assert read_file(system, "dst") == []


def test_copy_single_block(system):
    chunks, result = run_copy(system, blocks=1)
    assert read_file(system, "dst")[0].startswith(chunks[0])


def test_copy_worker_reports(system):
    _chunks, result = run_copy(system, blocks=10)
    assert len(result.workers) == 4
    assert sorted(w.blocks for w in result.workers) == [2, 2, 3, 3]
    assert {w.node_index for w in result.workers} == {0, 1, 2, 3}
    assert result.blocks_per_second > 0


def test_copy_dest_has_same_interleaving(system):
    run_copy(system, blocks=9)

    def body():
        client = system.naive_client()
        src = yield from client.open("src")
        dst = yield from client.open("dst")
        return src, dst

    src, dst = system.run(body())
    assert dst.width == src.width
    assert dst.start == src.start
    assert [c.size_blocks for c in dst.constituents] == [
        c.size_blocks for c in src.constituents
    ]


def test_copy_nearly_linear_speedup():
    """Section 5.1: 'The copy tool displays nearly linear speedup as
    processors are added.'"""
    times = {}
    for p in (2, 4, 8):
        system = make_system(p, fast=False)
        _chunks, result = run_copy(system, blocks=512)
        times[p] = result.elapsed
    assert times[2] / times[4] > 1.7
    assert times[4] / times[8] > 1.6


def test_copy_faster_than_naive_readwrite():
    """The tool must beat doing the same copy through the central server."""
    system = make_system(4, fast=False)
    chunks = pattern_chunks(32)
    build_file(system, "src", chunks)

    client = system.naive_client()

    def naive_copy():
        yield from client.create("naive-dst")
        yield from client.open("src")
        start = system.sim.now
        while True:
            block, data = yield from client.seq_read("src")
            if block is None:
                break
            yield from client.seq_write("naive-dst", data)
        return system.sim.now - start

    naive_time = system.run(naive_copy())

    tool = CopyTool(system.client_node, system.bridge.port, system.config)

    def tool_copy():
        return (yield from tool.run("src", "tool-dst"))

    result = system.run(tool_copy())
    assert result.elapsed < naive_time


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


def test_translate_tool_applies_table(system):
    chunks = [b"Hello Bridge" + bytes(4)] * 6
    _chunks, _result = run_copy(
        system, tool_cls=TranslateTool, chunks=chunks,
        tool_kwargs={"table": rot13_table()},
    )
    out = read_file(system, "dst")
    assert out[0].startswith(b"Uryyb Oevqtr")


def test_translate_rejects_bad_table(system):
    with pytest.raises(ValueError):
        TranslateTool(
            system.client_node, system.bridge.port, system.config, table=b"xy"
        )


def test_encrypt_tool_roundtrip(system):
    chunks = pattern_chunks(9)
    build_file(system, "plain", chunks)
    key = b"secret-key"

    def run_tool(src, dst):
        tool = EncryptTool(
            system.client_node, system.bridge.port, system.config, key=key
        )

        def body():
            return (yield from tool.run(src, dst))

        return system.run(body())

    run_tool("plain", "cipher")
    ciphertext = read_file(system, "cipher")
    assert not ciphertext[0].startswith(chunks[0])  # actually encrypted
    run_tool("cipher", "decrypted")
    plaintext = read_file(system, "decrypted")
    for original, roundtripped in zip(chunks, plaintext):
        assert roundtripped.startswith(original)


def test_encrypt_rejects_empty_key(system):
    with pytest.raises(ValueError):
        EncryptTool(system.client_node, system.bridge.port, system.config, key=b"")


def test_lex_tool_lowercases_lines_and_counts_tokens(system):
    line = (b"Bridge TOOLS Are Fast " * 4)[:79] + b"\n"
    block = (line * 12)[:960]
    chunks = [block] * 4
    _chunks, result = run_copy(
        system, tool_cls=LineLexTool, chunks=chunks,
        tool_kwargs={"line_length": 80},
    )
    out = read_file(system, "dst")
    assert b"bridge tools are fast" in out[0]
    combined = {}
    for worker in result.workers:
        for token, count in (worker.summary or {}).items():
            combined[token] = combined.get(token, 0) + count
    assert combined[b"bridge"] == 4 * 12 * 4


def test_lex_rejects_bad_line_length(system):
    with pytest.raises(ValueError):
        LineLexTool(
            system.client_node, system.bridge.port, system.config, line_length=0
        )


def test_filters_within_constant_factor_of_copy():
    """Section 5.1: filter programs 'should run within a constant factor
    of the copy tool's time'."""
    system = make_system(4, fast=False)
    chunks = pattern_chunks(40)
    build_file(system, "src", chunks)

    def run_tool(tool, dst):
        def body():
            return (yield from tool.run("src", dst))

        return system.run(body()).elapsed

    plain = run_tool(
        CopyTool(system.client_node, system.bridge.port, system.config), "c"
    )
    translated = run_tool(
        TranslateTool(
            system.client_node, system.bridge.port, system.config,
            table=rot13_table(),
        ),
        "t",
    )
    encrypted = run_tool(
        EncryptTool(
            system.client_node, system.bridge.port, system.config, key=b"k3y"
        ),
        "e",
    )
    assert plain <= translated <= plain * 1.5
    assert plain <= encrypted <= plain * 1.5


# ---------------------------------------------------------------------------
# Grep
# ---------------------------------------------------------------------------


def test_grep_finds_planted_needles(system):
    chunks = text_chunks(24, seed=3, needle=b"NEEDLE", needle_every=4)
    build_file(system, "hay", chunks)
    tool = GrepTool(system.client_node, system.bridge.port, system.config)

    def body():
        return (yield from tool.run("hay", b"NEEDLE"))

    result = system.run(body())
    assert result.count == 6
    assert sorted(m.global_block for m in result.matches) == [0, 4, 8, 12, 16, 20]
    assert result.blocks_scanned == 24


def test_grep_no_matches(system):
    build_file(system, "hay2", text_chunks(8, seed=4))
    tool = GrepTool(system.client_node, system.bridge.port, system.config)

    def body():
        return (yield from tool.run("hay2", b"ZZZZQQ"))

    result = system.run(body())
    assert result.count == 0


def test_grep_multiple_matches_per_block(system):
    block = (b"spot the spot in this spot " * 30)[:960]
    build_file(system, "hay3", [block])
    tool = GrepTool(system.client_node, system.bridge.port, system.config)

    def body():
        return (yield from tool.run("hay3", b"spot"))

    result = system.run(body())
    assert result.count == block.count(b"spot")
    offsets = [m.offset for m in result.matches]
    assert offsets == sorted(offsets)


def test_grep_rejects_empty_pattern(system):
    tool = GrepTool(system.client_node, system.bridge.port, system.config)
    with pytest.raises(ValueError):
        next(tool.run("hay", b""))


def test_grep_matches_reported_in_global_order(system):
    chunks = text_chunks(16, seed=5, needle=b"XMARKX", needle_every=1)
    build_file(system, "hay4", chunks)
    tool = GrepTool(system.client_node, system.bridge.port, system.config)

    def body():
        return (yield from tool.run("hay4", b"XMARKX"))

    result = system.run(body())
    blocks = [m.global_block for m in result.matches]
    assert blocks == sorted(blocks)
    assert len(set(blocks)) == 16


# ---------------------------------------------------------------------------
# Word count
# ---------------------------------------------------------------------------


def test_wordcount_totals(system):
    block = b"one two three\nfour five\n".ljust(960, b"\x00")
    build_file(system, "counted", [block] * 8)
    tool = WordCountTool(system.client_node, system.bridge.port, system.config)

    def body():
        return (yield from tool.run("counted"))

    result = system.run(body())
    assert result.blocks == 8
    assert result.words == 5 * 8
    assert result.lines == 2 * 8
    assert result.data_bytes == len(b"one two three\nfour five\n") * 8


def test_wordcount_empty_file(system):
    build_file(system, "empty", [])
    tool = WordCountTool(system.client_node, system.bridge.port, system.config)

    def body():
        return (yield from tool.run("empty"))

    result = system.run(body())
    assert result.blocks == 0
    assert result.words == 0


def test_tool_resolves_lfs_slots_only_after_get_info(system):
    from repro.tools import Tool

    tool = Tool(system.client_node, system.bridge.port, system.config)
    with pytest.raises(RuntimeError, match="get_info"):
        tool.lfs_slot_of_node(0)
    info = system.run(tool.get_info())
    assert [tool.lfs_slot_of_node(h.node_index) for h in info.lfs] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="no LFS instance on node 99"):
        tool.lfs_slot_of_node(99)
