"""EFS consistency checker (fsck).

Walks the raw device image of one LFS instance and verifies every
invariant the on-disk format promises:

* every directory entry's head block exists and carries the right file
  number and block number 0;
* each file is a doubly linked *circular* list: following ``next`` from
  the head visits blocks numbered 0..size-1 exactly once and returns to
  the head, and every ``prev`` mirrors the corresponding ``next``;
* Bridge headers agree with the directory entry (global file id, width,
  column, and the ``global = local * width + column`` arithmetic);
* no block is claimed by two files, no in-file block is on the free
  list, and every allocated block is reachable (no orphans).

The checker reads the device image directly (plus the cache's dirty
blocks, which a crash-consistent checker would find after write-back) —
it is intentionally independent of the EFS server's own code paths, so
tests can use it as an oracle after arbitrary workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.efs.directory import BUCKET_COUNT, bucket_entries
from repro.efs.layout import NULL_ADDR, unpack_block
from repro.errors import EFSCorruptionError


@dataclass
class FsckReport:
    """Outcome of one consistency check."""

    files_checked: int = 0
    blocks_checked: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.errors

    def complain(self, message: str) -> None:
        self.errors.append(message)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "clean" if self.clean else f"{len(self.errors)} errors"
        return (
            f"FsckReport({self.files_checked} files, "
            f"{self.blocks_checked} blocks, {state})"
        )


def check_efs(server) -> FsckReport:
    """Verify one EFS instance; returns an :class:`FsckReport`.

    Synchronous (host-side) — it inspects simulator state directly and
    charges no simulated time, like an offline fsck run.  It reads only
    the blocks it visits, each as it would be after a full cache
    write-back, and checks only allocated blocks for orphans, so its
    cost follows the blocks in use, not the device's capacity.
    """
    peek, stored = server.cache.peek, server.disk.blocks.get

    def read(address):
        raw = peek(address)
        return stored(address) if raw is None else raw

    return check_image(server, read, server.freelist.allocated())


def check_image(server, read, allocated) -> FsckReport:
    """Verify ``server``'s directory and files on the image ``read``
    returns (raw bytes by address, ``None`` where never written), and
    that every address in ``allocated`` (ascending) belongs to a file."""
    report = FsckReport()
    directory = server.directory
    first_data = directory.first_data_block
    capacity = server.disk.params.capacity_blocks

    owned: Dict[int, int] = {}  # block address -> owning file number

    # Enumerate directory entries straight from the bucket blocks.
    entries = []
    for bucket in range(BUCKET_COUNT):
        raw = read(bucket)
        if raw is None:
            continue
        entries.extend(bucket_entries(raw))

    for entry in entries:
        report.files_checked += 1
        if entry.head_addr == NULL_ADDR:
            continue  # empty file: nothing on disk to verify
        if not first_data <= entry.head_addr < capacity:
            report.complain(
                f"file {entry.file_number}: head {entry.head_addr} outside "
                f"data region"
            )
            continue
        addr = entry.head_addr
        seen: List[int] = []
        headers = []
        while True:
            raw = read(addr)
            if raw is None:
                report.complain(
                    f"file {entry.file_number}: block {addr} never written"
                )
                break
            try:
                header, bridge, _data = unpack_block(raw)
            except EFSCorruptionError as exc:
                report.complain(f"file {entry.file_number}: block {addr}: {exc}")
                break
            if header.file_number != entry.file_number:
                report.complain(
                    f"file {entry.file_number}: block {addr} owned by "
                    f"{header.file_number}"
                )
                break
            if addr in owned and owned[addr] != entry.file_number:
                report.complain(
                    f"block {addr} claimed by files {owned[addr]} and "
                    f"{entry.file_number}"
                )
                break
            owned[addr] = entry.file_number
            if header.block_number != len(seen):
                report.complain(
                    f"file {entry.file_number}: block {addr} numbered "
                    f"{header.block_number}, expected {len(seen)}"
                )
                break
            if bridge.global_file_id != entry.global_file_id:
                report.complain(
                    f"file {entry.file_number}: block {addr} bridge id "
                    f"{bridge.global_file_id} != {entry.global_file_id}"
                )
            expected_global = header.block_number * entry.width + entry.column
            if bridge.global_block != expected_global:
                report.complain(
                    f"file {entry.file_number}: block {addr} global "
                    f"{bridge.global_block} != {expected_global}"
                )
            seen.append(addr)
            headers.append(header)
            report.blocks_checked += 1
            if header.next_addr == entry.head_addr:
                break  # wrapped: circular list complete
            if len(seen) > capacity:
                report.complain(
                    f"file {entry.file_number}: next chain does not close"
                )
                break
            addr = header.next_addr
        # prev pointers must mirror next pointers around the circle
        for index in range(len(seen)):
            next_header = headers[(index + 1) % len(seen)]
            if next_header.prev_addr != seen[index]:
                report.complain(
                    f"file {entry.file_number}: prev of block "
                    f"{seen[(index + 1) % len(seen)]} is "
                    f"{next_header.prev_addr}, expected {seen[index]}"
                )
        # free-list cross-check
        for addr_in_file in seen:
            if server.freelist.is_free(addr_in_file):
                report.complain(
                    f"file {entry.file_number}: block {addr_in_file} is on "
                    "the free list"
                )

    # orphan check: every allocated data block must belong to some file
    for address in allocated:
        if address not in owned:
            report.complain(f"block {address} allocated but unreachable")

    return report


def check_system(system) -> List[FsckReport]:
    """Run :func:`check_efs` on every LFS of a BridgeSystem."""
    return [check_efs(server) for server in system.efs_servers]
