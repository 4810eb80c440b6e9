"""The storage-driver registry: specs in, :class:`BlockStoreABC` out.

Every construction site in the reproduction — harness builders,
baselines, test harnesses — resolves its device through
:func:`make_driver`, so the set of available backends is a single
registry (:data:`DRIVER_KINDS`) instead of hard-coded class names.

A **spec** is any of:

* ``None`` — the default driver (``ram`` with the paper's 15 ms);
* a string — a registered kind with its defaults: ``"ram"``,
  ``"hostfs"``, ``"object"``;
* a dict — a kind plus per-driver fields, e.g.
  ``{"kind": "ram", "access_time": 0.001}``,
  ``{"kind": "hostfs", "root": "/tmp/blocks", "fsync": "always"}``
  (``kind`` defaults to ``"ram"`` when omitted);
* a callable ``factory(sim, name, capacity_blocks) -> BlockStoreABC``
  — full custom construction (how a storage array joins a fabric).

Unknown kinds and unknown fields raise :class:`ValueError` at
construction time — a misspelled spec never silently falls back to the
default device.

Per-driver fields
-----------------

``ram``     — ``access_time``, ``latency`` (a model instance, overrides
              ``access_time``), ``scheduler``
              (``"fcfs"``/``"sstf"``/``"elevator"``),
              ``capacity_blocks``.
``hostfs``  — ``root`` (required; blocks live in ``root/<name>/`` so
              one spec serves a whole fabric of named disks), ``fsync``
              (``"never"``/``"always"``), plus the ``ram`` latency and
              scheduler fields.
``object``  — ``capacity_blocks``; its first-byte latency, bandwidth
              and in-flight cap are the constants of
              :mod:`repro.storage.objectstore`.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Union

from repro.storage.base import BlockStoreABC
from repro.storage.disk import SimulatedDisk
from repro.storage.hostfs import FSYNC_POLICIES, HostFSDisk
from repro.storage.objectstore import ObjectStoreDisk
from repro.storage.parameters import DiskParameters, FixedLatency
from repro.storage.scheduler import make_scheduler

DriverSpec = Union[None, str, dict, Callable]

#: Default capacity when neither the caller nor the spec says: the
#: paper's 64 MB image.
DEFAULT_CAPACITY_BLOCKS = 65_536

_COMMON_FIELDS = frozenset({"kind", "capacity_blocks"})
_LATENCY_FIELDS = frozenset({"access_time", "latency", "scheduler"})


def _resolve_latency(spec: dict):
    """The latency model for a single-arm driver: an explicit model
    beats an ``access_time`` field; with neither, ``None`` falls through
    to ``DiskParameters.default_latency``."""
    model = spec.get("latency")
    if model is not None:
        return model
    if "access_time" in spec:
        return FixedLatency(spec["access_time"])
    return None


def _resolve_scheduler(spec: dict):
    scheduler = spec.get("scheduler")
    if scheduler is None or not isinstance(scheduler, str):
        return scheduler
    return make_scheduler(scheduler)


def _build_ram(sim, spec, name, capacity_blocks):
    params = DiskParameters(
        name=name, capacity_blocks=spec.get("capacity_blocks", capacity_blocks)
    )
    return SimulatedDisk(
        sim, params, _resolve_latency(spec),
        scheduler=_resolve_scheduler(spec), name=name,
    )


def _build_hostfs(sim, spec, name, capacity_blocks):
    root = spec.get("root")
    if not root:
        raise ValueError(
            "hostfs driver spec requires a 'root' directory for its blocks"
        )
    fsync = spec.get("fsync", "never")
    if fsync not in FSYNC_POLICIES:
        raise ValueError(
            f"hostfs fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
        )
    params = DiskParameters(
        name=name, capacity_blocks=spec.get("capacity_blocks", capacity_blocks)
    )
    return HostFSDisk(
        sim, params, os.path.join(os.fspath(root), name),
        latency_model=_resolve_latency(spec),
        scheduler=_resolve_scheduler(spec), name=name, fsync=fsync,
    )


def _build_object(sim, spec, name, capacity_blocks):
    params = DiskParameters(
        name=name, capacity_blocks=spec.get("capacity_blocks", capacity_blocks)
    )
    return ObjectStoreDisk(sim, params, name=name)


#: kind -> (factory, allowed spec fields).
DRIVER_KINDS: Dict[str, tuple] = {
    "ram": (_build_ram, _COMMON_FIELDS | _LATENCY_FIELDS),
    "hostfs": (_build_hostfs, _COMMON_FIELDS | _LATENCY_FIELDS
               | frozenset({"root", "fsync"})),
    "object": (_build_object, _COMMON_FIELDS),
}


def normalize_driver_spec(spec: DriverSpec) -> dict:
    """Canonicalize a spec to a validated ``{"kind": ..., ...}`` dict.

    Raises :class:`ValueError` on unknown kinds, non-spec values, and
    fields the kind's factory does not understand.
    """
    if spec is None:
        spec = {"kind": "ram"}
    elif isinstance(spec, str):
        spec = {"kind": spec}
    elif isinstance(spec, dict):
        spec = dict(spec)
        spec.setdefault("kind", "ram")
    else:
        raise ValueError(
            f"storage driver spec must be a kind name, a dict, or a "
            f"factory callable, not {spec!r}"
        )
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in DRIVER_KINDS:
        raise ValueError(
            f"unknown storage driver kind {kind!r}; registered kinds: "
            f"{sorted(DRIVER_KINDS)}"
        )
    allowed = DRIVER_KINDS[kind][1]
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown field(s) {unknown} for storage driver kind {kind!r}; "
            f"allowed: {sorted(allowed)}"
        )
    return spec


def storage_specs(storage, count: int) -> list:
    """Expand a ``storage=`` knob into one driver spec per device.

    ``None`` or a single spec (kind string, dict, factory callable)
    applies to every device; a list/tuple gives one spec per device —
    the heterogeneous-fabric form — and must match ``count``.
    """
    if storage is None or isinstance(storage, (str, dict)) or callable(storage):
        return [storage] * count
    specs = list(storage)
    if len(specs) != count:
        raise ValueError(
            f"storage= lists one driver spec per device: got "
            f"{len(specs)} specs for {count} devices"
        )
    return specs


def make_driver(
    spec: DriverSpec,
    sim,
    *,
    name: str,
    capacity_blocks: int = DEFAULT_CAPACITY_BLOCKS,
) -> BlockStoreABC:
    """Build one block-store driver from a spec.

    ``name`` is the device name (``disk0``...); ``capacity_blocks`` is
    the *caller's* default, which the spec's own field overrides.  A
    spec that names no latency gets the paper's 15 ms
    (:meth:`~repro.storage.parameters.DiskParameters.default_latency`).
    """
    if callable(spec) and not isinstance(spec, (str, dict)):
        driver = spec(sim, name, capacity_blocks)
        if not isinstance(driver, BlockStoreABC):
            raise ValueError(
                f"storage driver factory {spec!r} returned "
                f"{type(driver).__name__}, not a BlockStoreABC"
            )
        return driver
    spec = normalize_driver_spec(spec)
    factory = DRIVER_KINDS[spec["kind"]][0]
    return factory(sim, spec, name, capacity_blocks)
