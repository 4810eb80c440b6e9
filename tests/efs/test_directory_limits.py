"""Capacity and failure-path tests for EFS: directory bucket overflow,
out-of-space behavior, and directory persistence on the device."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.efs import EFSClient, EFSServer
from repro.efs.directory import _ENTRIES_PER_BUCKET
from repro.errors import EFSOutOfSpaceError
from repro.machine import Machine
from repro.sim import Simulator
from repro.storage import DiskParameters, FixedLatency, SimulatedDisk

from tests.efs.conftest import exists


def make_efs(capacity_blocks=2048):
    sim = Simulator(seed=121)
    machine = Machine(sim, 1, config=DEFAULT_CONFIG)
    node = machine.node(0)
    disk = SimulatedDisk(
        sim,
        DiskParameters(name="d", capacity_blocks=capacity_blocks),
        FixedLatency(1e-4),
    )
    server = EFSServer(node, disk, DEFAULT_CONFIG)
    client = EFSClient(node, server.port)
    return sim, server, client


def numbers_for_bucket(server, bucket, count):
    """File numbers that all hash into the same directory bucket."""
    found = []
    number = 0
    while len(found) < count:
        if server.directory.bucket_of(number) == bucket:
            found.append(number)
        number += 1
    return found


def test_entries_per_bucket_constant():
    assert _ENTRIES_PER_BUCKET == 32  # 1024 / 32-byte entries


def test_bucket_overflow_raises():
    sim, server, client = make_efs()
    numbers = numbers_for_bucket(server, 0, _ENTRIES_PER_BUCKET + 1)

    def body():
        for number in numbers[:-1]:
            yield from client.create(number)
        try:
            yield from client.create(numbers[-1])
        except EFSOutOfSpaceError as exc:
            return "bucket" in str(exc)

    assert sim.run_process(body()) is True


def test_bucket_frees_slots_after_delete():
    sim, server, client = make_efs()
    numbers = numbers_for_bucket(server, 3, _ENTRIES_PER_BUCKET + 1)

    def body():
        for number in numbers[:-1]:
            yield from client.create(number)
        yield from client.delete(numbers[0])
        yield from client.create(numbers[-1])  # now fits
        return (yield from exists(client, numbers[-1]))

    assert sim.run_process(body()) is True


def test_disk_full_raises_and_recovers():
    # 64 directory buckets + 4 data blocks only
    sim, server, client = make_efs(capacity_blocks=68)

    def body():
        yield from client.create(1)
        for _ in range(4):
            yield from client.append(1, b"x")
        try:
            yield from client.append(1, b"one too many")
        except EFSOutOfSpaceError:
            pass
        else:
            return "no error"
        # deleting frees space again
        yield from client.delete(1)
        yield from client.create(2)
        yield from client.append(2, b"fits now")
        result = yield from client.read(2, 0)
        return result.data[:8]

    assert sim.run_process(body()) == b"fits now"


def test_directory_survives_cache_wipe():
    """Directory entries live on the device: dropping every cached block
    must not lose files."""
    sim, server, client = make_efs()

    def setup():
        yield from client.create(42)
        yield from client.append(42, b"persistent")
        yield from client.flush()

    sim.run_process(setup())
    server.cache.invalidate_all()

    def body():
        result = yield from client.read(42, 0)
        return result.data[:10]

    assert sim.run_process(body()) == b"persistent"


def test_many_files_across_buckets():
    sim, server, client = make_efs(capacity_blocks=4096)

    def body():
        for number in range(200):
            yield from client.create(number)
        present = []
        for number in range(201):
            present.append((yield from exists(client, number)))
        return present

    assert sim.run_process(body()) == [True] * 200 + [False]
