"""The one description of a Bridge installation: :class:`SystemSpec`.

A :class:`~repro.harness.builders.BridgeSystem` is built from a frozen,
validated ``SystemSpec`` and nothing else.  The keyword constructor is
sugar — ``BridgeSystem(4, seed=1, elastic=4)`` is
``BridgeSystem(SystemSpec.from_keywords(4, seed=1, elastic=4))`` — and
:meth:`SystemSpec.from_keywords` is the only place a polymorphic keyword
form (bool-or-int ``elastic``, a dict ``rebalance``, string/dict/list
``storage``, a ``disk_latency`` model) turns into data.
DESIGN.md's "Configuration" table lists every field with its sugar.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.config import DEFAULT_CONFIG, CpuCosts, MessageCosts, SystemConfig
from repro.core.ring import ModuloRing
from repro.elastic import RING_KINDS, ConsistentHashRing, RebalanceConfig
from repro.machine import NETWORK_KINDS
from repro.redundancy import SCHEMES
from repro.storage import (
    DRIVER_KINDS,
    FixedLatency,
    normalize_driver_spec,
    storage_specs,
)

#: Named systems, as the data :meth:`SystemSpec.from_dict` loads.  One
#: entry per system the repo builds at more than one site.
PRESETS: Dict[str, dict] = {
    # Section 4's machine is the default of every field: 15 ms ram
    # disks, one Bridge Server on the Butterfly, every knob off.
    "paper": {},
    # The S21/S22/S24 open-loop fabric: 0.5 ms disks, so the Bridge
    # Server's serial per-request CPU is the bottleneck and saturation
    # is a *server* phenomenon.
    "open-loop": {"lfs_count": 4,
                  "storage": [{"kind": "ram", "access_time": 0.0005}]},
    # The configuration tests/baselines/trace_acceptance.json pins.
    "acceptance": {"lfs_count": 4, "seed": 0, "obs": True},
}


def _fold_latency(spec: dict, disk_latency) -> dict:
    """``disk_latency=`` is the caller's default for latency-model
    drivers: it lands in every spec that takes a latency and names none
    (a plain :class:`FixedLatency` as data, any other model live)."""
    takes_latency = "latency" in DRIVER_KINDS[spec["kind"]][1]
    if (disk_latency is None or not takes_latency
            or spec.keys() & {"latency", "access_time"}):
        return spec
    if type(disk_latency) is not FixedLatency:
        return {**spec, "latency": disk_latency}
    return {**spec, "access_time": disk_latency.access_time}


def _plain(value, where: str):
    """``value`` as JSON-plain data; a live object raises, naming where
    in the spec it sits."""
    if isinstance(value, dict):
        return {key: _plain(item, f"{where}.{key}")
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item, f"{where}[{index}]")
                for index, item in enumerate(value)]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValueError(
        f"SystemSpec.{where} holds a live object ({value!r}); only a "
        f"data-only spec has a to_dict() form"
    )


@dataclass(frozen=True)
class SystemSpec:
    """Everything that determines a simulated Bridge installation."""

    #: p: LFS nodes, each with a disk and an EFS instance.
    lfs_count: int
    #: Cost constants and sizes (``prefetch_window`` and
    #: ``bridge_cache_blocks`` live here).
    config: SystemConfig = DEFAULT_CONFIG
    seed: int = 0
    #: One normalised driver spec per LFS (a single entry applies to
    #: every LFS); an entry may be a factory callable instead of a dict.
    storage: Tuple[Any, ...] = ({"kind": "ram"},)
    #: A :data:`repro.machine.NETWORK_KINDS` name.
    network: str = "butterfly"
    #: Active Bridge Server partitions.
    bridge_server_count: int = 1
    #: A :data:`repro.elastic.ring.RING_KINDS` name: how names route to
    #: partitions.  Only the consistent ring can be resized live.
    ring: str = ModuloRing.kind
    #: Provisioned-but-idle server nodes a resize can grow onto.
    spare_servers: int = 0
    #: A :data:`repro.redundancy.SCHEMES` name.
    redundancy: str = "none"
    #: The heat-driven control plane's settings; ``None`` installs none.
    rebalance: Optional[RebalanceConfig] = None
    obs: bool = False
    #: Chrome-trace file ``run()`` rewrites after each driver (needs obs).
    trace_export: Optional[str] = None

    def __post_init__(self) -> None:
        if self.lfs_count < 1:
            raise ValueError("a Bridge system needs at least one LFS node")
        if self.bridge_server_count < 1:
            raise ValueError("need at least one Bridge Server")
        for field, known in (("network", NETWORK_KINDS), ("ring", RING_KINDS),
                             ("redundancy", SCHEMES)):
            if getattr(self, field) not in known:
                raise ValueError(
                    f"{field}={getattr(self, field)!r} is not one of "
                    f"{sorted(known)}"
                )
        for field in ("prefetch_window", "bridge_cache_blocks"):
            if getattr(self.config, field) < 0:
                raise ValueError(
                    f"{field}={getattr(self.config, field)} must be >= 0 "
                    f"(0 is off)"
                )
        if self.spare_servers < 0:
            raise ValueError(f"spare_servers={self.spare_servers} must be >= 0")
        rigid = self.ring != ConsistentHashRing.kind
        if rigid and (self.spare_servers or self.rebalance is not None):
            raise ValueError(
                f"spare servers and rebalancing need the resizable "
                f"{ConsistentHashRing.kind!r} ring, not ring={self.ring!r}"
            )
        if self.trace_export is not None and not self.obs:
            raise ValueError("trace_export= needs obs=True")
        storage = tuple(self.storage)
        if len(storage) == 1:
            storage *= self.lfs_count
        if len(storage) != self.lfs_count:
            raise ValueError(
                f"storage lists one driver spec per LFS: got {len(storage)} "
                f"for lfs_count={self.lfs_count}"
            )
        object.__setattr__(self, "storage", tuple(
            spec if callable(spec) else normalize_driver_spec(spec)
            for spec in storage
        ))

    # ------------------------------------------------------------------
    # The keyword sugar
    # ------------------------------------------------------------------

    @classmethod
    def from_keywords(
        cls,
        lfs_count: int,
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        disk_latency=None,
        storage=None,
        network: str = "butterfly",
        bridge_server_count: int = 1,
        redundancy: str = "none",
        prefetch_window: Optional[int] = None,
        bridge_cache_blocks: Optional[int] = None,
        obs: bool = False,
        trace_export: Optional[str] = None,
        elastic=None,
        rebalance=None,
    ) -> "SystemSpec":
        """Normalise the ``BridgeSystem(p, **keywords)`` forms to a spec.

        * ``prefetch_window`` / ``bridge_cache_blocks`` override the
          config's fields of the same name;
        * ``storage`` takes one driver spec (kind name, dict, factory)
          or a per-LFS list; ``disk_latency`` is the default latency
          model of the latency-model drivers among them;
        * ``elastic=True`` routes by consistent hash over
          ``bridge_server_count`` partitions; an int additionally
          provisions that many server nodes so the fabric can grow;
        * ``rebalance`` takes a dict of :class:`RebalanceConfig` fields
          (``{}`` for the defaults) and implies ``elastic=True``;
        * ``trace_export`` implies ``obs``.
        """
        overrides = {
            field: value
            for field, value in (("prefetch_window", prefetch_window),
                                 ("bridge_cache_blocks", bridge_cache_blocks))
            if value is not None
        }
        config = config or DEFAULT_CONFIG
        if overrides:
            config = config.with_changes(**overrides)

        if elastic is None or elastic is False:
            ring, spare_servers = ModuloRing.kind, 0
        elif elastic is True:
            ring, spare_servers = ConsistentHashRing.kind, 0
        elif isinstance(elastic, int):
            if elastic < bridge_server_count:
                raise ValueError(
                    f"elastic={elastic} provisions fewer servers than "
                    f"bridge_server_count={bridge_server_count}"
                )
            ring = ConsistentHashRing.kind
            spare_servers = elastic - bridge_server_count
        else:
            raise ValueError(
                f"elastic= takes True or a provisioned server count, "
                f"not {elastic!r}"
            )

        if rebalance is not None:
            if not isinstance(rebalance, dict):
                raise ValueError(
                    f"rebalance= takes a dict of RebalanceConfig fields, "
                    f"not {rebalance!r}"
                )
            rebalance = RebalanceConfig(**rebalance)
            ring = ConsistentHashRing.kind

        return cls(
            lfs_count=lfs_count,
            config=config,
            seed=seed,
            storage=tuple(
                spec if callable(spec)
                else _fold_latency(normalize_driver_spec(spec), disk_latency)
                for spec in storage_specs(storage, lfs_count)
            ),
            network=network,
            bridge_server_count=bridge_server_count,
            ring=ring,
            spare_servers=spare_servers,
            redundancy=redundancy,
            rebalance=rebalance,
            obs=bool(obs) or trace_export is not None,
            trace_export=trace_export,
        )

    # ------------------------------------------------------------------
    # The data form
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The spec as JSON-plain data (``from_dict`` inverts it).

        Raises :class:`ValueError`, naming the field, if the spec holds
        a live object — a driver factory, a latency-model or scheduler
        instance."""
        data = {field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)}
        data["config"] = dataclasses.asdict(self.config)
        if self.rebalance is not None:
            data["rebalance"] = dataclasses.asdict(self.rebalance)
        data["storage"] = _plain(self.storage, "storage")
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SystemSpec":
        """Load a spec from its data form; absent fields keep their
        defaults (within ``config`` too)."""
        fields = dict(data)
        if "config" in fields:
            config = dict(fields["config"])
            for key, kind in (("messages", MessageCosts), ("cpu", CpuCosts)):
                if key in config:
                    config[key] = kind(**config[key])
            fields["config"] = DEFAULT_CONFIG.with_changes(**config)
        if fields.get("rebalance") is not None:
            fields["rebalance"] = RebalanceConfig(**fields["rebalance"])
        return cls(**fields)

    @classmethod
    def preset(cls, name: str, **fields) -> "SystemSpec":
        """The :data:`PRESETS` system ``name`` with data-form ``fields``
        laid over it: ``SystemSpec.preset("open-loop", seed=7)``."""
        return cls.from_dict({**PRESETS[name], **fields})
