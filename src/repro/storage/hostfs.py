"""The ``hostfs`` driver: blocks persisted to a real host directory.

Where the ``ram`` driver holds block bytes in a Python dict, this driver
stores each written block as one file (``block_%08d.bin``) under a
host directory, so:

* runs perform **real I/O** — every simulated device access reads or
  writes the host filesystem, not process memory;
* the device image **survives re-instantiation** — a new
  :class:`HostFSDisk` (in a fresh simulator, or a fresh process) over
  the same directory sees every block the previous instance wrote,
  which is what makes restart tests possible;
* the image is **inspectable and editable** from outside the simulator
  (corruption tests and external tooling just edit the files).

Simulated *time* still comes from the latency model — the host I/O cost
is real but does not advance the simulation clock, keeping results
deterministic regardless of host speed.

Durability is explicit: ``fsync="never"`` (default) leaves durability
to the OS page cache; ``fsync="always"`` fsyncs every block write;
:meth:`~repro.storage.base.BlockStoreABC.flush` fsyncs all block files
and the directory under either policy.  The driver is also
*mtime-aware*: it records each block file's modification time as it
loads or writes it, and :meth:`modified_externally` reports blocks
whose host mtime has drifted — an external edit detector for tests and
tooling that share the directory with a live driver.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, MutableMapping, Optional

from repro.storage.base import SingleArmBlockStore
from repro.storage.parameters import DiskParameters

_BLOCK_PREFIX = "block_"
_BLOCK_SUFFIX = ".bin"

FSYNC_POLICIES = ("never", "always")


def _block_filename(block: int) -> str:
    return f"{_BLOCK_PREFIX}{block:08d}{_BLOCK_SUFFIX}"


def _parse_block_filename(filename: str) -> Optional[int]:
    if not (filename.startswith(_BLOCK_PREFIX) and filename.endswith(_BLOCK_SUFFIX)):
        return None
    digits = filename[len(_BLOCK_PREFIX):-len(_BLOCK_SUFFIX)]
    return int(digits) if digits.isdigit() else None


class HostBlockMap(MutableMapping):
    """``store.blocks`` for the host-fs driver: a write-through mutable
    mapping over the block files.  Reads hit the host file each time, so
    external edits are visible; writes go straight to the file (and are
    mtime-recorded, so they do not count as external edits)."""

    __slots__ = ("_store",)

    def __init__(self, store: "HostFSDisk") -> None:
        self._store = store

    def __getitem__(self, block: int) -> bytes:
        path = self._store._block_path(block)
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise KeyError(block) from None

    def __setitem__(self, block: int, data: bytes) -> None:
        self._store._write_block(block, bytes(data))

    def __delitem__(self, block: int) -> None:
        path = self._store._block_path(block)
        try:
            os.unlink(path)
        except FileNotFoundError:
            raise KeyError(block) from None
        self._store._mtimes.pop(block, None)

    def __iter__(self) -> Iterator[int]:
        return iter(self._store._scan_blocks())

    def __len__(self) -> int:
        return len(self._store._scan_blocks())


class HostFSDisk(SingleArmBlockStore):
    """A single-arm block device persisted to a host directory."""

    kind = "hostfs"

    def __init__(
        self,
        sim,
        params: DiskParameters,
        root: str,
        latency_model=None,
        scheduler=None,
        name: Optional[str] = None,
        fsync: str = "never",
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.root = os.fspath(root)
        self.fsync = fsync
        os.makedirs(self.root, exist_ok=True)
        # mtimes recorded at adoption/write time: the baseline that
        # modified_externally() compares host state against.
        self._mtimes: Dict[int, float] = {}
        self.blocks = HostBlockMap(self)
        super().__init__(
            sim, params, latency_model, scheduler=scheduler, name=name,
        )
        # Adopt any blocks a previous instance left behind (restart
        # survival): record their mtimes so they read as in-sync.
        for block in self._scan_blocks():
            self._record_mtime(block)

    # ------------------------------------------------------------------
    # Storage hooks (real host I/O; simulated time paid by the arm loop)
    # ------------------------------------------------------------------

    def _block_path(self, block: int) -> str:
        return os.path.join(self.root, _block_filename(block))

    def _read_block(self, block: int) -> bytes:
        try:
            with open(self._block_path(block), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return self._zeros
        self._record_mtime(block)
        return data

    def _write_block(self, block: int, data: bytes) -> None:
        path = self._block_path(block)
        with open(path, "wb") as handle:
            handle.write(data)
            if self.fsync == "always":
                handle.flush()
                os.fsync(handle.fileno())
        self._record_mtime(block)

    def flush(self) -> None:
        """Fsync every block file (and the directory) regardless of the
        write-time policy — the host-durability barrier."""
        for block in self._scan_blocks():
            path = self._block_path(block)
            try:
                fd = os.open(path, os.O_RDONLY)
            except FileNotFoundError:
                continue
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        dir_fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    # ------------------------------------------------------------------
    # mtime awareness
    # ------------------------------------------------------------------

    def _record_mtime(self, block: int) -> None:
        try:
            self._mtimes[block] = os.stat(self._block_path(block)).st_mtime_ns
        except FileNotFoundError:
            self._mtimes.pop(block, None)

    def modified_externally(self):
        """Blocks whose host files changed (or vanished) since this
        driver last read or wrote them — i.e. edits made behind the
        driver's back.  Returns a sorted list of block addresses."""
        drifted = []
        known = dict(self._mtimes)
        for block, recorded in known.items():
            try:
                current = os.stat(self._block_path(block)).st_mtime_ns
            except FileNotFoundError:
                drifted.append(block)
                continue
            if current != recorded:
                drifted.append(block)
        for block in self._scan_blocks():
            if block not in known:
                drifted.append(block)
        return sorted(drifted)

    # ------------------------------------------------------------------

    def _scan_blocks(self):
        blocks = []
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return blocks
        for filename in names:
            block = _parse_block_filename(filename)
            if block is not None:
                blocks.append(block)
        blocks.sort()
        return blocks
