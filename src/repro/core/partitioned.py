"""A distributed collection of Bridge Servers (paper section 4.1).

"In our implementation the Bridge Server is a single centralized
process, though this need not be the case.  If requests to the server
are frequent enough to cause a bottleneck, the same functionality could
be provided by a distributed collection of processes."

This module provides exactly that: the file namespace is hash-partitioned
across several :class:`~repro.core.server.BridgeServer` instances, each a
full server over the same LFS set but owning a disjoint slice of names.
No cross-server coordination is needed because every file belongs to
exactly one partition — the simplest correct realization of the paper's
remark, and enough to remove the central-server ceiling the E17 bench
measures.

Since S20 the partitioned namespace is a first-class *fabric*, not a
naive-view shim: :class:`PartitionedBridge` is the router every surface
accepts — :class:`PartitionedClient` is the complete
:class:`~repro.core.client.BridgeClient` API plus one routing override
(naive ops, list I/O, block maps, cross-partition ``Get Info``),
:class:`~repro.core.parallel.JobController` and the tool framework
resolve their owning partition at open/create time, and the S16
redundancy wrappers plus the S18 cache/prefetcher (one instance per
partition) work unchanged at ``bridge_server_count > 1``.  S19 spans
propagate through every routed call, so one trace renders per-partition
server rows with cross-partition fan-out edges.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.client import BridgeClient
from repro.core.info import SystemInfo
from repro.core.ops import OPS
from repro.core.ring import ModuloRing, Ring
from repro.core.server import BridgeServer
from repro.errors import BridgeBadRequestError
from repro.machine import Port, gather


class PartitionedBridge:
    """Routes each file name to its owning Bridge Server.

    This is the fabric handle: anything that accepts a server ``Port``
    accepts one of these instead and reaches it through the client
    :func:`client_for` builds (the tool framework and
    :class:`~repro.core.parallel.JobController` do exactly that).

    Since S22 the routing map is a *ring* object (see
    :mod:`repro.core.ring`): ``servers`` is the provisioned set and
    the ring decides how many of them are active and which names they
    own.  The default ring is the seed's mod-k map over every
    provisioned server — byte-identical to the pre-elastic fabric — and
    :meth:`set_ring` is the (atomic, non-yielding) seam the S22 resizer
    flips during a live migration.
    """

    def __init__(self, servers: List[BridgeServer],
                 ring: Optional[Ring] = None) -> None:
        if not servers:
            raise ValueError("need at least one Bridge Server")
        self.servers = list(servers)
        self.set_ring(ring if ring is not None
                      else ModuloRing(len(self.servers)))

    @property
    def active_servers(self) -> List[BridgeServer]:
        """The servers the ring currently routes to (a prefix of the
        provisioned set: partition ids are stable server indexes)."""
        return self.servers[: self.ring.partitions]

    @property
    def ports(self) -> List[Port]:
        """Every active partition's request port, in partition order."""
        return [server.port for server in self.active_servers]

    def set_ring(self, ring: Ring) -> None:
        """Swap the routing map (the S22 resize flip).  Synchronous and
        non-yielding by design: the resizer installs its forwarding net
        and flips in one atomic step."""
        if ring.partitions > len(self.servers):
            raise ValueError(
                f"ring wants {ring.partitions} partitions but only "
                f"{len(self.servers)} servers are provisioned"
            )
        self.ring = ring

    def partition_of(self, name: str) -> int:
        return self.ring.partition_of(name)

    def server_for(self, name: str) -> BridgeServer:
        return self.servers[self.partition_of(name)]

    def port_for(self, name: str) -> Port:
        return self.server_for(name).port


class PartitionedClient(BridgeClient):
    """The client surface over a partitioned server collection.

    It *is* :class:`BridgeClient` — same methods, same signatures — with
    the one ``_call`` seam overridden to pick the serving partition(s)
    from the op's routing rule (:data:`repro.core.ops.OPS`): per-name
    ops go to the ring owner of the name, batched metadata ops are
    bucketed by the live ring, ``Get Info`` fans out to
    every active partition in a single windowed gather and merge, and a
    job's ops go to the server holding the job.
    """

    def __init__(self, node, bridge: PartitionedBridge,
                 name: str = "pclient", traffic_class=None) -> None:
        super().__init__(node, bridge, name=name, traffic_class=traffic_class)
        self.bridge = bridge

    def _call(self, method: str, size: int = 0, job=None, **args):
        route = OPS[method].route
        if route == "name":
            return self._rpc.call(self.bridge.port_for(args["name"]), method,
                                  size=size, **args)
        if route == "names":
            return self._mop(method, **args)
        if route == "all":
            return self._broadcast(method, args)
        return super()._call(method, size, job=job)

    def _window(self) -> int:
        """The fabric's fan-out window (``bridge_fanout_limit``; 0 =
        unbounded).  Every cross-partition fan-out below respects it."""
        return self.bridge.servers[0].config.bridge_fanout_limit

    def _fanout(self, label, calls, **attrs):
        """One windowed cross-partition gather under a single client
        span — the shared fan-out path behind the ``names`` and ``all``
        routing rules.  A count-4 trace shows one ``pclient.<label>``
        span with legs to four server rows."""
        obs = self.node.machine.sim.obs
        span = None
        prev = None
        if obs is not None:
            prev = obs.current
            span = obs.begin(f"pclient.{label}", "client",
                             node=self.node.index)
            obs.set_current(span)
        try:
            results = yield from gather(
                self.node, calls, max_in_flight=self._window() or None
            )
        finally:
            if obs is not None:
                obs.end(span, **attrs)
                obs.set_current(prev)
        return results

    def _mop(self, method, names, **shared):
        """The ``names`` rule: one batched metadata op across the fabric
        (S23); ``shared`` arguments apply to every name.

        Buckets ``names`` by the live ring, splits each partition's
        bucket into window-sized sub-batches, and issues them all as one
        windowed gather — ``sum(ceil(k_i / window))`` RPCs for ``k_i``
        names on partition ``i`` instead of one per name (see
        ``repro.analysis.batched_rpc_count`` for the exact model).
        Outcomes are re-assembled in input order; duplicates keep
        per-occurrence outcomes.  Elastic-safe: the ring is consulted at
        issue time and the owning server chases any name caught in a
        migration's forwarding window.  An empty batch is refused with
        the server's own error, whatever the ring.
        """
        if not names:
            raise BridgeBadRequestError(f"{method}: empty name batch")
        buckets: Dict[int, List[int]] = {}
        for index, name in enumerate(names):
            buckets.setdefault(self.bridge.partition_of(name), []).append(index)
        window = self._window()
        calls = []
        slices = []
        for partition in sorted(buckets):
            indexes = buckets[partition]
            step = window if window > 0 else len(indexes)
            port = self.bridge.servers[partition].port
            for lo in range(0, len(indexes), step):
                chunk = indexes[lo:lo + step]
                calls.append(
                    (port, method,
                     {"names": [names[i] for i in chunk], **shared}, 0)
                )
                slices.append(chunk)
        batches = yield from self._fanout(
            method, calls, names=len(names), rpcs=len(calls)
        )
        outcomes = [None] * len(names)
        for chunk, batch in zip(slices, batches):
            for index, outcome in zip(chunk, batch):
                outcomes[index] = outcome
        return outcomes

    def _broadcast(self, method, args):
        """The ``all`` rule: one fan-out to every active partition
        through the shared windowed path, replies merged per op."""
        calls = [(port, method, args, 0) for port in self.bridge.ports]
        replies = yield from self._fanout(method, calls,
                                          partitions=len(calls))
        return _MERGE[method](replies)


def _merge_info(infos):
    """One ``Get Info`` package for the fabric.

    The partitions must agree on the LFS set — they always do in a
    well-formed fabric, and disagreement is a wiring bug worth failing
    loudly on.  The merged package carries every partition's request
    port in ``server_ports``.
    """
    first = infos[0]
    layout = [handle.node_index for handle in first.lfs]
    for index, info in enumerate(infos[1:], start=1):
        if [handle.node_index for handle in info.lfs] != layout:
            raise BridgeBadRequestError(
                f"partition {index} disagrees on the LFS set "
                f"(expected nodes {layout})"
            )
    return SystemInfo(
        lfs=list(first.lfs),
        server_port=first.server_port,
        server_ports=[info.server_port for info in infos],
    )


#: How each ``all``-routed op folds its per-partition replies.
_MERGE = {"get_info": _merge_info}


def client_for(node, target, **keywords) -> BridgeClient:
    """The client for whatever a consumer was pointed at — the one place
    that answers "port or fabric?": a :class:`PartitionedClient` over a
    :class:`PartitionedBridge`, a plain :class:`BridgeClient` on a
    server :class:`~repro.machine.Port`.  ``keywords`` are the client's
    (``name``, ``traffic_class``)."""
    if isinstance(target, PartitionedBridge):
        return PartitionedClient(node, target, **keywords)
    if isinstance(target, Port):
        return BridgeClient(node, target, **keywords)
    raise TypeError(
        f"expected a server Port or a PartitionedBridge, got {target!r}"
    )
