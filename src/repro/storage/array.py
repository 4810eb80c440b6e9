"""Synchronized storage arrays (section 2 background baseline).

A storage array "assembles multiple drives into a single logical device
with enormous throughput...  though they have the unfortunate tendency to
maximize rotational latency: each operation must wait for the most poorly
positioned disk."  This model makes that trade-off measurable: a logical
access touches all member drives in lock step; its positioning time is the
*maximum* of the members' independent rotational phases, while transfer
time divides by the member count.

To the storage kernel an array is just another device: a
:class:`~repro.storage.disk.SimulatedDisk` whose latency model is the
lock-step positioning rule below.  Queueing, wait/service stamping,
spans, heat, schedulers and ``fail``/``repair`` all come from the
kernel.
"""

from __future__ import annotations

from typing import Tuple

from repro.storage.disk import SimulatedDisk
from repro.storage.parameters import ROTATION_TIME, SEEK_MIN, DiskParameters


class StorageArray(SimulatedDisk):
    """``member_count`` spindles behaving as one logical block device.

    Positioning model: each member contributes an independent rotational
    wait uniform in ``[0, ROTATION_TIME)``; the logical operation pays the
    maximum plus a fixed ``SEEK_MIN`` seek (the geometric drive's
    constants, :mod:`repro.storage.parameters`), then
    ``transfer_time / member_count``.
    Expected positioning therefore *grows* toward a full rotation as
    members are added: E[max of d uniforms] = d/(d+1) x rotation.

    A single member failure takes down the whole logical device, which
    is the kernel's :meth:`fail` unchanged.  The array is its own
    :class:`~repro.storage.base.LatencyModel` (:meth:`access`).
    """

    rng_stream = "array"

    def __init__(
        self,
        sim,
        member_count: int,
        capacity_blocks: int,
        transfer_time: float = 0.001,
        name: str = "array",
    ) -> None:
        if member_count < 1:
            raise ValueError("array needs at least one member drive")
        self.member_count = member_count
        self.transfer_time = transfer_time
        super().__init__(
            sim, DiskParameters(name, capacity_blocks), latency_model=self,
            name=name,
        )

    def access(self, rng, head_position: int, block: int,
               now: float) -> Tuple[float, int]:
        """Seek, then the worst member's rotational wait, then the
        transfer split ``member_count`` ways."""
        service = (
            SEEK_MIN
            + self.sample_positioning()
            + self.transfer_time / self.member_count
        )
        return service, block

    def sample_positioning(self) -> float:
        """One sample of the lock-step positioning wait (max of members)."""
        worst = 0.0
        for _ in range(self.member_count):
            wait = self._rng.uniform(0.0, ROTATION_TIME)
            if wait > worst:
                worst = wait
        return worst

    def expected_positioning(self) -> float:
        """Analytic E[max of d uniform rotational waits]."""
        d = self.member_count
        return ROTATION_TIME * d / (d + 1)
