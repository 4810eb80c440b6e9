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
from dataclasses import dataclass
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
    """Every access costs the same: the paper's 15 ms sleep."""

    def __init__(self, access_time: float = DEFAULT_ACCESS_TIME) -> None:
        if not access_time >= 0:  # also refuses NaN
            raise ValueError("latencies must be non-negative")
        self.access_time = access_time

    def access(self, rng, head_position: int, block: int, now: float) -> Tuple[float, int]:
        """Return ``(service_time, new_head_position)`` for one block access."""
        return self.access_time, block


#: :class:`GeometricLatency`'s platter: one rotation at 3600 RPM.
ROTATION_TIME = 0.0167
#: Its arm: ``SEEK_MIN + SEEK_FACTOR * sqrt(cylinder distance)``.
SEEK_MIN = 0.004
SEEK_FACTOR = 0.0006


class GeometricLatency:
    """Seek + rotation + transfer against a real geometry.

    * seek: ``SEEK_MIN + SEEK_FACTOR * sqrt(cylinder distance)`` (classic
      acceleration-limited arm model), zero if already on-cylinder;
    * rotation: the platter spins continuously (:data:`ROTATION_TIME`);
      the wait is the angle to the target sector at the moment the seek
      completes;
    * transfer: one sector time per block.
    """

    def __init__(self, geometry: DiskGeometry) -> None:
        self.geometry = geometry

    def seek_time(self, from_block: int, to_block: int) -> float:
        from_cyl = self.geometry.cylinder_of(from_block)
        to_cyl = self.geometry.cylinder_of(to_block)
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        return SEEK_MIN + SEEK_FACTOR * math.sqrt(distance)

    def access(self, rng, head_position: int, block: int, now: float) -> Tuple[float, int]:
        seek = self.seek_time(head_position, block)
        sectors = self.geometry.blocks_per_track
        sector_time = ROTATION_TIME / sectors
        _cyl, _track, sector = self.geometry.locate(block)
        arrive = now + seek
        angle_now = (arrive % ROTATION_TIME) / ROTATION_TIME
        target_angle = sector / sectors
        wait_fraction = (target_angle - angle_now) % 1.0
        rotation = wait_fraction * ROTATION_TIME
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
