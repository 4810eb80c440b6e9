"""The Bridge Server's command set, stated once (paper Table 1).

One frozen row per ``BridgeServer.op_*`` handler carrying the per-op
facts every other module needs, so a new op is one row here plus its
handler — not an edit to a set in each of ``traffic.admission``,
``elastic.heat``, ``core.server`` and ``core.partitioned``:

* ``traffic_class`` — the S21 admission/SLO class of a request that
  carries no explicit stamp.
* ``route`` — how a fabric client finds the serving partition(s):
  ``"name"`` (the ring owner of the ``name`` argument), ``"names"``
  (bucket the ``names`` argument by ring owner, one windowed sub-batch
  per partition), ``"all"`` (every active partition, replies merged),
  ``"job"`` (the server that created the job:
  ``JobInfo.server_port``).
* ``continuation`` — work on state the server already holds.
  Admission gates jobs at the door (``parallel_open``); once a job has
  a ``_jobs`` entry, refusing its reads/writes/close would leak it, so
  continuations bypass the token bucket and the bounded queue admits
  them even past its depth.  The S22 migration RPCs are the same case:
  a refused ``migrate_in`` mid-sweep would strand a forwarding entry
  with no mover behind it.
* ``control`` — control-plane traffic addressed to *this* server: the
  S22 forwarding seam never redirects it and S24 heat never attributes
  it.  Every control op is also a continuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Op:
    """One row of the op table."""

    name: str
    traffic_class: str
    route: str
    continuation: bool = False
    control: bool = False


OPS: Dict[str, Op] = {
    op.name: op
    for op in (
        Op("create", "meta", "name"),
        Op("delete", "meta", "name"),
        Op("open", "meta", "name"),
        Op("stat", "meta", "name"),
        Op("find", "meta", "all"),
        Op("get_info", "meta", "all"),
        Op("get_block_map", "meta", "name"),
        Op("mcreate", "meta", "names"),
        Op("mdelete", "meta", "names"),
        Op("mopen", "meta", "names"),
        Op("mstat", "meta", "names"),
        Op("seq_read", "read", "name"),
        Op("random_read", "read", "name"),
        Op("seq_write", "write", "name"),
        Op("random_write", "write", "name"),
        Op("list_read", "tool", "name"),
        Op("list_write", "tool", "name"),
        Op("parallel_open", "parallel", "name"),
        Op("parallel_read", "parallel", "job", continuation=True),
        Op("parallel_write", "parallel", "job", continuation=True),
        Op("parallel_close", "parallel", "job", continuation=True),
        Op("migrate_in", "other", "name", continuation=True, control=True),
        Op("migrate_out", "other", "name", continuation=True, control=True),
    )
}

#: Derived views for the per-request hot paths (one set probe each).
CONTINUATION_OPS = frozenset(n for n, op in OPS.items() if op.continuation)
CONTROL_OPS = frozenset(n for n, op in OPS.items() if op.control)
