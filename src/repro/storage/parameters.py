"""Disk parameter presets and latency models.

The paper's device driver "includes a variable-length sleep interval to
simulate seek and rotational delay...  set to 15 ms, to approximate the
performance of a CDC Wren-class hard disk" (section 4.4).
:class:`FixedLatency` reproduces exactly that; :class:`GeometricLatency`
is a more detailed model (seek curve + rotating platter + transfer) used
in ablations and available to downstream users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.config import BLOCK_SIZE
from repro.storage.geometry import DiskGeometry


#: The paper's 15 ms Wren-class access time.  This is the *single source
#: of truth* for the default device latency: every constructor that
#: needs a default — drivers, harness builders, baselines — resolves it
#: through :meth:`DiskParameters.default_latency` rather than repeating
#: the constant.
DEFAULT_ACCESS_TIME = 0.015


class FixedLatency:
    """Every access costs the same: the paper's 15 ms sleep.

    Optional uniform jitter (``+/- jitter`` seconds) can model variance
    without changing the mean; the paper used none.
    """

    def __init__(self, access_time: float = DEFAULT_ACCESS_TIME, jitter: float = 0.0) -> None:
        if access_time < 0 or jitter < 0:
            raise ValueError("latencies must be non-negative")
        self.access_time = access_time
        self.jitter = jitter

    def access(self, rng, head_position: int, block: int, now: float) -> Tuple[float, int]:
        """Return ``(service_time, new_head_position)`` for one block access."""
        time = self.access_time
        if self.jitter:
            time += rng.uniform(-self.jitter, self.jitter)
        return max(time, 0.0), block


class GeometricLatency:
    """Seek + rotation + transfer against a real geometry.

    * seek: ``seek_min + seek_factor * sqrt(cylinder distance)`` (classic
      acceleration-limited arm model), zero if already on-cylinder;
    * rotation: the platter spins continuously; the wait is the angle to
      the target sector at the moment the seek completes;
    * transfer: one sector time per block.
    """

    def __init__(
        self,
        geometry: DiskGeometry,
        rotation_time: float = 0.0167,  # 3600 RPM
        seek_min: float = 0.004,
        seek_factor: float = 0.0006,
    ) -> None:
        self.geometry = geometry
        self.rotation_time = rotation_time
        self.seek_min = seek_min
        self.seek_factor = seek_factor

    def seek_time(self, from_block: int, to_block: int) -> float:
        from_cyl = self.geometry.cylinder_of(from_block)
        to_cyl = self.geometry.cylinder_of(to_block)
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        return self.seek_min + self.seek_factor * math.sqrt(distance)

    def access(self, rng, head_position: int, block: int, now: float) -> Tuple[float, int]:
        seek = self.seek_time(head_position, block)
        sectors = self.geometry.blocks_per_track
        sector_time = self.rotation_time / sectors
        _cyl, _track, sector = self.geometry.locate(block)
        arrive = now + seek
        angle_now = (arrive % self.rotation_time) / self.rotation_time
        target_angle = sector / sectors
        wait_fraction = (target_angle - angle_now) % 1.0
        rotation = wait_fraction * self.rotation_time
        return seek + rotation + sector_time, block


@dataclass(frozen=True)
class DiskParameters:
    """Capacity and identity of one simulated drive."""

    name: str
    capacity_blocks: int
    block_size: int = BLOCK_SIZE
    geometry: Optional[DiskGeometry] = None

    def default_latency(self) -> FixedLatency:
        """The default device latency model: the paper's flat 15 ms
        (:data:`DEFAULT_ACCESS_TIME`).  Drivers and builders that take
        an optional latency model fall back to this, so the constant
        lives in exactly one place."""
        return FixedLatency(DEFAULT_ACCESS_TIME)


def wren_geometric(capacity_blocks: int = 65_536) -> Tuple[DiskParameters, GeometricLatency]:
    """A Wren-like drive with explicit geometry (16 KB tracks)."""
    blocks_per_track = 16
    tracks_per_cylinder = 8
    cylinders = max(1, capacity_blocks // (blocks_per_track * tracks_per_cylinder))
    geometry = DiskGeometry(cylinders, tracks_per_cylinder, blocks_per_track)
    params = DiskParameters(
        name="cdc-wren-geometric",
        capacity_blocks=geometry.capacity_blocks,
        geometry=geometry,
    )
    return params, GeometricLatency(geometry)
