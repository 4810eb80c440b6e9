"""The redundancy manager: one knob, three schemes (S16).

``BridgeSystem(..., redundancy="none" | "mirror" | "parity")`` attaches a
:class:`RedundancyManager` to the system so every experiment, bench, and
example can run the same workload under any redundancy scheme.  The
manager hands out scheme-appropriate file wrappers with one uniform
surface (``create`` / ``write_all`` / ``read_all`` / ``storage_blocks``,
all simulation generators) and — for the parity scheme — automatically
spawns the online rebuild sweep when
:class:`repro.redundancy.faults.FaultInjector` repairs a failed slot.

Scheme price list (the section 6 trade, made selectable):

============  ================  ===========================  ==========
scheme        storage overhead  write cost per logical block  survives
============  ================  ===========================  ==========
``"none"``    1x                1 block write                nothing
``"mirror"``  2x                2 block writes               1 failure
``"parity"``  p/(p-1)x          1-2 reads + 2 writes (RMW)   1 failure
============  ================  ===========================  ==========
"""

from __future__ import annotations

from typing import List

from repro.redundancy.mirror import MirroredFile
from repro.redundancy.parity import ParityFile
from repro.redundancy.rebuild import OnlineRebuild

SCHEMES = ("none", "mirror", "parity")


class PlainFile:
    """The unprotected baseline, shaped like the redundant wrappers.

    A thin adapter over the naive view so scheme sweeps can treat
    ``none`` uniformly; ``read_all`` returns ``(chunks, None)`` (there
    are no degraded-read statistics to report — a failure is fatal).
    """

    def __init__(self, system, name: str) -> None:
        self.system = system
        self.name = name
        self.client = system.naive_client()
        self._written = 0

    def create(self):
        return (yield from self.client.create(self.name))

    def write_all(self, chunks):
        count = yield from self.client.write_all(self.name, chunks)
        self._written += count
        return count

    def read_all(self):
        chunks = []
        for block in range(self._written):
            chunks.append((yield from self.client.random_read(self.name, block)))
        return chunks, None

    def storage_blocks(self):
        result = yield from self.client.open(self.name)
        return result.total_blocks


class RedundancyManager:
    """Per-system redundancy policy and rebuilds.

    The fault injector calls :meth:`on_repair` when a device comes
    back (which slots are down is the devices' own ``failed`` flag).
    Under the parity scheme a repair immediately spawns an unthrottled
    :class:`OnlineRebuild` sweep for every registered parity file.
    """

    def __init__(self, system, scheme: str = "none") -> None:
        if scheme not in SCHEMES:
            raise ValueError(
                f"unknown redundancy scheme {scheme!r}; pick one of {SCHEMES}"
            )
        self.system = system
        self.scheme = scheme
        self.files: List[ParityFile] = []  # registered parity files
        self.rebuilds: List[OnlineRebuild] = []

    # ------------------------------------------------------------------
    # File factory
    # ------------------------------------------------------------------

    def file(self, name: str):
        """A file wrapper appropriate to this system's scheme."""
        if self.scheme == "mirror":
            return MirroredFile(self.system, name)
        if self.scheme == "parity":
            return ParityFile(self.system, name)
        return PlainFile(self.system, name)

    def register(self, parity_file: ParityFile) -> None:
        """Track a parity file for automatic post-repair rebuilds."""
        if parity_file not in self.files:
            self.files.append(parity_file)

    def on_repair(self, slot: int) -> None:
        """Under the parity scheme, spawn a rebuild sweep of the
        repaired ``slot`` for every registered file that holds data."""
        if self.scheme == "parity":
            for parity_file in self.files:
                if parity_file.file_id is None or parity_file.logical_blocks == 0:
                    continue
                rebuild = OnlineRebuild(parity_file, slot)
                self.rebuilds.append(rebuild)
                rebuild.start()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RedundancyManager(scheme={self.scheme!r}, "
            f"files={len(self.files)})"
        )
