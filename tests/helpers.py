"""Helpers only tests use: input shapes, oracles and shortcuts that no
bench, example or script needs, written on the public ``repro`` API."""

import math
import random
from contextlib import contextmanager

from repro.efs.fsck import check_image
from repro.sim import join_all
from repro.tools.sort.records import KEY_BYTES, key_of
from repro.workloads import build_file, text_chunks, uniform_keys


def sorted_keys(count, seed=0):
    """Already sorted input (best case for merge passes)."""
    return sorted(uniform_keys(count, seed))


def reversed_keys(count, seed=0):
    """Reverse-sorted input."""
    return sorted(uniform_keys(count, seed), reverse=True)


def few_distinct_keys(count, distinct=8, seed=0):
    """Heavily duplicated keys (exercises the merge's <= tie handling)."""
    rng = random.Random(seed)
    values = [rng.randrange(2**32) for _ in range(distinct)]
    return [values[rng.randrange(distinct)] for _ in range(count)]


def build_text_file(system, name, block_count, seed=0, needle=None,
                    needle_every=0, **create_kwargs):
    """A text file of fixed-length lines, optionally with planted needles."""
    chunks = text_chunks(
        block_count, seed=seed, needle=needle, needle_every=needle_every
    )
    return build_file(system, name, chunks, **create_kwargs)


def payload_of(record):
    """The record body after the key, with NUL padding stripped."""
    return record[KEY_BYTES:].rstrip(b"\x00")


def is_sorted(records):
    """True if record keys are nondecreasing."""
    return all(
        key_of(records[i]) <= key_of(records[i + 1])
        for i in range(len(records) - 1)
    )


def expected_merge_passes(records, buffer_records):
    """Local merge passes needed for ``records`` with an in-core buffer."""
    if records <= buffer_records:
        return 0
    runs = math.ceil(records / buffer_records)
    return math.ceil(math.log2(runs))


def sequential_spawn(machine, specs):
    """Spawn workers one by one from the caller: the naive alternative
    :func:`repro.tools.base.tree_spawn` is measured against."""
    processes = []
    for node, generator, name in specs:
        process = yield machine.spawn_remote(node, generator, name=name)
        processes.append(process)
    results = yield join_all(processes)
    return results


@contextmanager
def failed(injector, slot):
    """Fail ``slot`` on entry, repair it on exit (under a parity scheme
    the repair starts the rebuild sweep)."""
    injector.fail_slot(slot)
    try:
        yield injector
    finally:
        injector.repair_slot(slot)


def failed_slots(system):
    """The slots whose device is down right now, in slot order."""
    return [slot for slot, disk in enumerate(system.disks) if disk.failed]


def reference_fsck(server):
    """fsck as it ran before it visited only the blocks in use, kept as
    the reference the faster checker must agree with: the whole device
    image with every cached block laid over it, and an orphan check
    over every data address of the device."""
    capacity = server.disk.params.capacity_blocks
    image = dict(server.disk.blocks)
    for address in range(capacity):
        cached = server.cache.peek(address)
        if cached is not None:
            image[address] = cached
    freelist = server.freelist
    allocated = [address
                 for address in range(server.directory.first_data_block,
                                      capacity)
                 if not freelist.is_free(address)]
    return check_image(server, image.get, allocated)
