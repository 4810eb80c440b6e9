"""Simulated storage: the block-store kernel, registered drivers,
latency models, schedulers, and arrays."""

from repro.storage.array import StorageArray
from repro.storage.base import (
    BlockStoreABC,
    IOScheduler,
    LatencyModel,
    SingleArmBlockStore,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.drivers import (
    DRIVER_KINDS,
    make_driver,
    normalize_driver_spec,
    storage_specs,
)
from repro.storage.geometry import DiskGeometry
from repro.storage.hostfs import HostFSDisk
from repro.storage.objectstore import ObjectStoreDisk
from repro.storage.parameters import (
    DEFAULT_ACCESS_TIME,
    DiskParameters,
    FixedLatency,
    GeometricLatency,
    wren_geometric,
)
from repro.storage.scheduler import (
    ElevatorScheduler,
    FCFSScheduler,
    SSTFScheduler,
    make_scheduler,
)

__all__ = [
    "BlockStoreABC",
    "IOScheduler",
    "LatencyModel",
    "DEFAULT_ACCESS_TIME",
    "DRIVER_KINDS",
    "DiskGeometry",
    "DiskParameters",
    "ElevatorScheduler",
    "FCFSScheduler",
    "FixedLatency",
    "GeometricLatency",
    "HostFSDisk",
    "ObjectStoreDisk",
    "SSTFScheduler",
    "SimulatedDisk",
    "SingleArmBlockStore",
    "StorageArray",
    "make_driver",
    "make_scheduler",
    "normalize_driver_spec",
    "storage_specs",
    "wren_geometric",
]
