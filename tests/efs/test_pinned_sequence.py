"""Pinned-sequence identity: a seeded EFS script whose simulated outcome
is compared with constants recorded at the commit *before* the block
access path was rebuilt (decode-once cache entries, header-only link
walk, plain-call cache hits).

Every yield of that path must stay where it was, so the simulated clock,
the kernel's event count, the cache counters and the device counters of
this ~300-op script — eight cache blocks, so it thrashes — may not move
by one.  A change that is *meant* to move simulated behaviour re-records
the constants and says so.
"""

import random
import zlib

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import EFSBlockNotFoundError

from tests.efs.conftest import EFSHarness, assert_memos_fresh, write_blocks

#: Recorded at commit c835e3c (the parent of the rebuild).
PINNED = {
    False: {
        "now": 24.55482400000095,
        "events": 7977,
        "hits": 1211,
        "misses": 1101,
        "evictions": 3658,
        "writebacks": 57,
        "reads": 1160,
        "writes": 326,
        "digest": 131963038,
    },
    True: {
        "now": 23.796824000000864,
        "events": 7831,
        "hits": 1218,
        "misses": 1153,
        "evictions": 3658,
        "writebacks": 270,
        "reads": 1153,
        "writes": 282,
        "digest": 131963038,
    },
}


def _block(rng):
    return bytes([rng.randrange(256)]) * rng.randrange(1, 961)


def _script(harness, rng):
    """~300 operations over three files; returns a CRC of everything read."""
    client = harness.client
    digest = 0
    sizes = {}
    last = {}  # file -> an address the last op on it returned: the next hint

    def note(data):
        nonlocal digest
        digest = zlib.crc32(data, digest)

    for number in (3, 11, 42):
        yield from client.create(number, global_file_id=number, width=2,
                                 column=number % 2)
        sizes[number] = 0
    for _ in range(60):  # grow well past the 8-block cache
        number = rng.choice((3, 11, 42))
        result = yield from client.append(number, _block(rng))
        assert result.block_number == sizes[number]
        sizes[number] += 1
        last[number] = result.addr
    for step in range(200):
        number = rng.choice(sorted(sizes))
        size = sizes[number]
        kind = rng.choice(
            ("read", "read", "read_hinted", "read_hinted", "overwrite",
             "overwrite_hinted", "append", "read_blocks", "write_blocks",
             "past_end", "foreign_hint")
        )
        if size == 0 and kind not in ("append", "write_blocks"):
            kind = "append"
        if kind == "read":
            result = yield from client.read(number, rng.randrange(size))
            note(result.data)
            last[number] = result.next_addr
        elif kind == "read_hinted":
            result = yield from client.read(
                number, rng.randrange(size), hint=last.get(number))
            note(result.data)
            last[number] = result.next_addr
        elif kind == "overwrite":
            result = yield from client.write(
                number, rng.randrange(size), _block(rng))
            last[number] = result.addr
        elif kind == "overwrite_hinted":
            result = yield from client.write(
                number, rng.randrange(size), _block(rng),
                hint=last.get(number))
            last[number] = result.addr
        elif kind == "append":
            result = yield from client.append(number, _block(rng))
            sizes[number] += 1
            last[number] = result.addr
        elif kind == "read_blocks":
            wanted = [rng.randrange(size) for _ in range(rng.randrange(1, 7))]
            batch = yield from client.read_blocks(
                number, wanted, hint=rng.choice((None, last.get(number))))
            for result in batch.results:
                note(result.data)
        elif kind == "write_blocks":
            writes = [(rng.randrange(size), _block(rng))
                      for _ in range(rng.randrange(0, 4)) if size]
            grow = rng.randrange(0, 3)
            writes += [(size + i, _block(rng)) for i in range(grow)]
            rng.shuffle(writes)
            yield from write_blocks(
                client, number, writes, hint=rng.choice((None, last.get(number))))
            sizes[number] += grow
        elif kind == "past_end":
            with pytest.raises(EFSBlockNotFoundError):
                yield from client.read(number, size + rng.randrange(3))
        elif kind == "foreign_hint":
            other = rng.choice([n for n in sorted(sizes) if n != number])
            hint = rng.choice((last.get(other), 5, 10 ** 6, -1))
            result = yield from client.read(
                number, rng.randrange(size), hint=hint)
            note(result.data)
        assert_memos_fresh(harness.server)
        if step % 67 == 66:  # delete one file and start it again
            freed = yield from client.delete(number)
            assert freed == sizes[number]
            yield from client.create(number, global_file_id=number, width=2,
                                     column=number % 2)
            sizes[number] = 0
            last.pop(number, None)
    for number in sorted(sizes):  # read everything back, threading hints
        chunks = yield from client.read_file(number)
        assert len(chunks) == sizes[number]
        for chunk in chunks:
            note(chunk)
    yield from client.flush()
    return digest


def _observe(write_behind):
    config = DEFAULT_CONFIG.with_changes(
        efs_cache_blocks=8, efs_write_behind=write_behind)
    harness = EFSHarness(config=config)
    digest = harness.run(_script(harness, random.Random(1988)))
    cache, disk = harness.server.cache, harness.disk
    return {
        "now": harness.sim.now,
        "events": harness.sim.events_executed,
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "writebacks": cache._writebacks.value,
        "reads": disk.reads,
        "writes": disk.writes,
        "digest": digest,
    }


@pytest.mark.parametrize("write_behind", [False, True])
def test_pinned_sequence_is_identical_to_the_parent(write_behind):
    assert _observe(write_behind) == PINNED[write_behind]


if __name__ == "__main__":  # re-record: python -m tests.efs.test_pinned_sequence
    for flag in (False, True):
        print(flag, _observe(flag))
