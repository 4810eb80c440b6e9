"""End-to-end integration tests: multiple tools and views composing over
the same system, determinism, and full-stack invariants."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.harness.builders import BridgeSystem
from repro.storage import FixedLatency
from repro.tools import CopyTool, EncryptTool, GrepTool, SortTool, WordCountTool
from repro.tools.sort import key_of, make_record
from repro.workloads import (
    build_file,
    build_record_file,
    pattern_chunks,
    read_file,
    text_chunks,
    uniform_keys,
)


def make_system(p=4, seed=71, **kwargs):
    return BridgeSystem(p, seed=seed, disk_latency=FixedLatency(0.001), **kwargs)


def test_sort_then_grep_pipeline():
    """Sort a record file, then grep the sorted output for a payload."""
    system = make_system(4)
    keys = uniform_keys(40, seed=1)
    build_record_file(system, "raw", keys)

    sort_tool = SortTool(system.client_node, system.bridge.port, system.config)

    def sort_body():
        return (yield from sort_tool.run("raw", "by-key"))

    system.run(sort_body())

    # find the payload of the smallest key in the sorted file: must be block 0
    records = read_file(system, "by-key")
    needle = records[0][8:20]
    grep_tool = GrepTool(system.client_node, system.bridge.port, system.config)

    def grep_body():
        return (yield from grep_tool.run("by-key", bytes(needle)))

    result = system.run(grep_body())
    assert any(m.global_block == 0 for m in result.matches)


def test_copy_then_sort_then_verify():
    """Copy an unsorted file, sort the copy, and confirm the original is
    untouched while the copy is sorted."""
    system = make_system(4)
    keys = uniform_keys(24, seed=2)
    build_record_file(system, "orig", keys)

    copy_tool = CopyTool(system.client_node, system.bridge.port, system.config)
    sort_tool = SortTool(system.client_node, system.bridge.port, system.config)

    def body():
        yield from copy_tool.run("orig", "work")
        yield from sort_tool.run("work", "work-sorted")

    system.run(body())

    orig_keys = [key_of(r) for r in read_file(system, "orig")]
    sorted_keys_out = [key_of(r) for r in read_file(system, "work-sorted")]
    assert orig_keys == keys  # original untouched
    assert sorted_keys_out == sorted(keys)


def test_encrypt_grep_finds_nothing_then_decrypt_restores():
    system = make_system(4)
    chunks = text_chunks(12, seed=3, needle=b"SECRETWORD", needle_every=3)
    build_file(system, "plain", chunks)
    key = b"\x5a\xa5\x3c"

    def run_tool(tool, src, dst):
        def body():
            return (yield from tool.run(src, dst))

        return system.run(body())

    encrypt = EncryptTool(system.client_node, system.bridge.port,
                          system.config, key=key)
    run_tool(encrypt, "plain", "cipher")

    grep = GrepTool(system.client_node, system.bridge.port, system.config)

    def grep_body(name):
        return (yield from grep.run(name, b"SECRETWORD"))

    assert system.run(grep_body("cipher")).count == 0

    decrypt = EncryptTool(system.client_node, system.bridge.port,
                          system.config, key=key)
    run_tool(decrypt, "cipher", "restored")
    restored = system.run(grep_body("restored"))
    assert restored.count == 4  # blocks 0, 3, 6, 9


def test_concurrent_tools_on_disjoint_files():
    """Two tools running simultaneously on different files both succeed
    and produce correct output (the Bridge Server is a shared monitor)."""
    system = make_system(4)
    build_file(system, "a", pattern_chunks(16, stamp=b"AAA"))
    build_file(system, "b", pattern_chunks(16, stamp=b"BBB"))

    tool_a = CopyTool(system.client_node, system.bridge.port, system.config)
    tool_b = CopyTool(system.client_node, system.bridge.port, system.config)

    def driver(tool, src, dst):
        return (yield from tool.run(src, dst))

    process_a = system.client_node.spawn(driver(tool_a, "a", "a2"), name="ta")
    process_b = system.client_node.spawn(driver(tool_b, "b", "b2"), name="tb")
    system.sim.run()
    assert process_a.done and process_b.done

    for name, stamp in (("a2", b"AAA"), ("b2", b"BBB")):
        for index, chunk in enumerate(read_file(system, name)):
            assert chunk.startswith(stamp + b"-%08d|" % index)


def test_determinism_same_seed_same_timings():
    """Two identical runs produce bit-identical simulated times."""

    def run():
        system = make_system(4, seed=99)
        keys = uniform_keys(24, seed=9)
        build_record_file(system, "d", keys)
        tool = SortTool(system.client_node, system.bridge.port, system.config)

        def body():
            return (yield from tool.run("d", "ds"))

        result = system.run(body())
        return result.total_time, system.sim.now, system.total_disk_ops()

    assert run() == run()


def test_naive_and_tool_views_see_identical_bytes():
    system = make_system(4)
    chunks = text_chunks(10, seed=4)
    build_file(system, "shared", chunks)

    naive = read_file(system, "shared")

    collected = {}

    class ReadingTool(WordCountTool):
        def _count(self, node, constituent):
            from repro.efs import EFSClient

            client = EFSClient(node, constituent.lfs_port)
            hint = constituent.head_addr
            for local_block in range(constituent.size_blocks):
                result = yield from client.read(
                    constituent.efs_file_number, local_block, hint=hint
                )
                hint = result.next_addr
                collected[result.global_block] = result.data
            return 0, 0, 0, constituent.size_blocks

    tool = ReadingTool(system.client_node, system.bridge.port, system.config)

    def body():
        return (yield from tool.run("shared"))

    system.run(body())
    assert len(collected) == len(naive)
    for global_block, data in collected.items():
        assert data == naive[global_block]


def test_delete_and_recreate_same_name():
    system = make_system(4)
    client = system.naive_client()

    def body():
        yield from client.create("phoenix")
        yield from client.seq_write("phoenix", b"first life")
        yield from client.delete("phoenix")
        yield from client.create("phoenix")
        yield from client.seq_write("phoenix", b"second life")
        chunks = yield from client.read_all("phoenix")
        return chunks

    chunks = system.run(body())
    assert len(chunks) == 1
    assert chunks[0].startswith(b"second life")


def test_hundreds_of_small_files():
    """Directory scalability: many files coexisting on every LFS."""
    system = make_system(4)
    client = system.naive_client()
    count = 60

    def body():
        for index in range(count):
            name = f"file-{index}"
            yield from client.create(name)
            yield from client.seq_write(name, b"payload-%03d" % index)
        data = []
        for index in range(0, count, 7):
            chunks = yield from client.read_all(f"file-{index}")
            data.append(chunks[0][:11])
        return data

    data = system.run(body())
    for offset, chunk in zip(range(0, count, 7), data):
        assert chunk == b"payload-%03d" % offset


def test_large_single_file_roundtrip():
    """A file much larger than every cache: 1 000 blocks through the
    naive view, read back intact and in order."""
    system = make_system(8)
    chunks = pattern_chunks(1000)
    build_file(system, "bulk", chunks)
    back = read_file(system, "bulk")
    assert len(back) == 1000
    for original, copy in zip(chunks, back):
        assert copy.startswith(original)


def test_full_scale_smoke_paper_disks():
    """One end-to-end pass with the paper's real 15 ms disks (slow path)."""
    system = BridgeSystem(4, seed=5)  # default FixedLatency(0.015)
    keys = uniform_keys(32, seed=5)
    build_record_file(system, "smoke", keys)
    tool = SortTool(system.client_node, system.bridge.port, system.config)

    def body():
        return (yield from tool.run("smoke", "smoke-sorted"))

    result = system.run(body())
    assert result.total_time > 1.0  # real simulated seconds elapsed
    out = [key_of(r) for r in read_file(system, "smoke-sorted")]
    assert out == sorted(keys)
