"""Admission control & fairness for the Bridge Server (S21).

Three pluggable mechanisms, installable individually or stacked, all
hanging off the two seams S20/S21 provide:

* **Token bucket** (:class:`TokenBucket`) — rate-limits admitted
  requests in :meth:`~repro.core.server.BridgeServer.admit`.  Refusals cost
  ``cpu.bridge_fast_reject`` and raise
  :class:`~repro.errors.BridgeThrottledError`.
* **Bounded queue with load shedding** (:class:`AdmissionQueue` with
  ``depth > 0``) — fronts the server mailbox (installed as
  ``Server.scheduler``, the loop's receive then goes through
  ``Server._next_request``).  Arrivals beyond the depth threshold
  are marked for shedding and fast-rejected with
  :class:`~repro.errors.BridgeOverloadError` *before* any directory or
  EFS work; under overload the server spends its time serving the
  bounded queue, not growing it.
* **Weighted fair queueing** (:class:`AdmissionQueue` with weights) —
  start-time fair queueing across traffic classes, so a burst of heavy
  tool/parallel jobs cannot starve naive interactive clients.  Virtual
  time advances with the start tags of picked requests; each class's
  backlog finishes in proportion to its weight.

:class:`AdmissionControl` composes them and owns the per-class outcome
counters (offered / admitted / throttled / shed) plus queue-wait
statistics (the measured side of the M/M/1 cross-check in
:mod:`repro.analysis.models`).  Everything defaults *off*: a server
without an installed control runs the seed byte sequence exactly.

Which ops are gated, and the class of an unstamped request, come from
the op table (:mod:`repro.core.ops`): its ``continuation`` rows are
never throttled or shed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.core.ops import CONTINUATION_OPS, OPS
from repro.errors import BridgeOverloadError, BridgeThrottledError
from repro.obs.metrics import Histogram
from repro.sim import Timeout

#: Default fair-queueing weights: naive interactive classes outweigh
#: heavy batch classes roughly 4:1 — tool jobs still progress, but they
#: cannot occupy more than their share of server slots under backlog.
DEFAULT_WEIGHTS: Dict[str, float] = {
    "read": 4.0, "write": 4.0, "meta": 2.0, "tool": 1.0, "parallel": 1.0,
    "other": 1.0,
}

#: Queue-wait histogram bounds: sub-ms scheduling gaps up to multi-second
#: overload backlogs.
_WAIT_BOUNDS: Tuple[float, ...] = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0, 30.0,
)


def classify(request: Any) -> str:
    """Traffic class of a request envelope: its stamp, else the op
    table's class for its method (``"other"`` for anything foreign)."""
    cls = getattr(request, "traffic_class", None)
    if cls is not None:
        return cls
    op = OPS.get(getattr(request, "method", None))
    return op.traffic_class if op is not None else "other"


class TokenBucket:
    """A deterministic token bucket: ``rate`` tokens/second, capped at
    ``burst`` — a twentieth of a second's tokens, never less than one."""

    __slots__ = ("rate", "burst", "tokens", "last_refill")

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"token rate must be positive, got {rate}")
        self.rate = rate
        self.burst = max(1.0, rate * 0.05)
        self.tokens = self.burst
        self.last_refill = 0.0

    def try_take(self, now: float) -> bool:
        elapsed = now - self.last_refill
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
            self.last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionQueue:
    """Bounded, optionally class-fair front-end for a server mailbox.

    Implements the protocol ``Server._next_request`` drives when the
    queue is installed as ``Server.scheduler``: ``enqueue(message, now)``,
    ``pick(now)``, ``len()``.  Messages are RPC ``Request`` envelopes
    (``method``, ``sent_at``, ``admission_shed``).

    * ``depth > 0`` bounds the number of *waiting* requests; arrivals
      beyond it are marked ``admission_shed`` and served first through a
      reject lane (shedding must be cheaper than queueing, so rejects
      never wait behind real work).
    * ``weights`` switches the wait lane from FIFO to start-time fair
      queueing over traffic classes: each request gets a start tag
      ``S = max(V, F_class)`` and the class finish tag advances by
      ``1/weight``; ``pick`` serves the smallest start tag (ties broken
      by arrival order), and virtual time ``V`` follows the picked tags.
      Backlogged classes therefore share the server in proportion to
      their weights — the fairness invariant the S21 tests pin down.
    """

    def __init__(self, depth: int = 0,
                 weights: Optional[Dict[str, float]] = None) -> None:
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.depth = depth
        self.weights = dict(weights) if weights is not None else None
        self._fifo: Deque[Tuple[float, Any]] = deque()
        self._classes: Dict[str, Deque[Tuple[float, float, int, Any]]] = {}
        self._finish: Dict[str, float] = {}
        self._virtual = 0.0
        self._arrival_seq = 0
        self._reject: Deque[Any] = deque()
        self._waiting = 0
        self.shed_count = 0
        self.peak_depth = 0
        #: Measured queue delay of admitted requests (pick time minus
        #: enqueue time) — the observable the analysis models predict.
        self.wait = Histogram(bounds=_WAIT_BOUNDS)

    # -- scheduler protocol -------------------------------------------

    def __len__(self) -> int:
        return self._waiting + len(self._reject)

    def enqueue(self, message: Any, now: float) -> None:
        if (self.depth > 0 and self._waiting >= self.depth
                and message.method not in CONTINUATION_OPS):
            # Past the threshold: mark and fast-lane for rejection.
            message.admission_shed = True
            self.shed_count += 1
            self._reject.append(message)
            return
        self._waiting += 1
        if self._waiting > self.peak_depth:
            self.peak_depth = self._waiting
        waiting_since = message.sent_at
        if waiting_since is None:
            waiting_since = now
        if self.weights is None:
            self._fifo.append((waiting_since, message))
            return
        cls = classify(message)
        weight = self.weights.get(cls)
        if weight is None:
            weight = self.weights.get("other", 1.0)
        start = max(self._virtual, self._finish.get(cls, 0.0))
        self._finish[cls] = start + 1.0 / weight
        self._arrival_seq += 1
        lane = self._classes.get(cls)
        if lane is None:
            lane = self._classes[cls] = deque()
        lane.append((start, waiting_since, self._arrival_seq, message))

    def pick(self, now: float) -> Any:
        if self._reject:
            return self._reject.popleft()
        if self.weights is None:
            enqueued_at, message = self._fifo.popleft()
            self._waiting -= 1
            self.wait.observe(now - enqueued_at)
            return message
        best_cls = None
        best_key = None
        for cls, lane in self._classes.items():
            if not lane:
                continue
            start, _enqueued_at, seq, _message = lane[0]
            key = (start, seq)
            if best_key is None or key < best_key:
                best_key = key
                best_cls = cls
        if best_cls is None:
            raise IndexError("pick from an empty admission queue")
        start, enqueued_at, _seq, message = self._classes[best_cls].popleft()
        self._virtual = max(self._virtual, start)
        self._waiting -= 1
        self.wait.observe(now - enqueued_at)
        return message

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "wfq" if self.weights is not None else "fifo"
        return (f"AdmissionQueue({mode}, waiting={self._waiting}, "
                f"depth={self.depth or 'unbounded'}, shed={self.shed_count})")


class AdmissionControl:
    """One server's composed admission policy + outcome accounting."""

    def __init__(self, policy: str = "none",
                 bucket: Optional[TokenBucket] = None,
                 queue: Optional[AdmissionQueue] = None) -> None:
        self.policy = policy
        self.bucket = bucket
        self.queue = queue
        self.offered: Dict[str, int] = {}
        self.admitted: Dict[str, int] = {}
        self.throttled: Dict[str, int] = {}
        self.shed: Dict[str, int] = {}
        self._server = None

    # ------------------------------------------------------------------

    def bind(self, server) -> None:
        """Called by ``BridgeServer.install_admission``; adopts the
        queue-wait histogram into the metrics registry when S19
        observability is attached."""
        self._server = server
        obs = server.node.machine.sim.obs
        if obs is not None and self.queue is not None:
            obs.metrics.adopt(f"{server.name}.admission.queue_wait",
                              self.queue.wait)

    @staticmethod
    def _bump(table: Dict[str, int], cls: str) -> None:
        table[cls] = table.get(cls, 0) + 1

    def admit(self, server, request: Any):
        """The hook :meth:`~repro.core.server.BridgeServer.admit` runs
        first (generator).

        Either returns (request admitted; the caller charges the normal
        per-request CPU next) or charges ``bridge_fast_reject`` and
        raises a typed :class:`~repro.errors.BridgeAdmissionError`.
        Refusals are first-class outcomes: per-class counters always,
        obs counters + a zero-length span event when S19 is attached.
        """
        cls = classify(request)
        self._bump(self.offered, cls)
        cpu = server.config.cpu
        obs = server.node.machine.sim.obs
        if request.admission_shed:
            self._bump(self.shed, cls)
            if obs is not None:
                obs.metrics.counter(
                    f"{server.name}.admission.shed.{cls}").inc()
                obs.event("admission.shed", "queue", node=server.node.index,
                          traffic_class=cls)
            yield Timeout(cpu.bridge_fast_reject)
            raise BridgeOverloadError(
                f"{server.name}: admission queue full "
                f"(depth {self.queue.depth if self.queue else 0}, class {cls})"
            )
        if (self.bucket is not None
                and request.method not in CONTINUATION_OPS):
            now = server.node.machine.sim.now
            if not self.bucket.try_take(now):
                self._bump(self.throttled, cls)
                if obs is not None:
                    obs.metrics.counter(
                        f"{server.name}.admission.throttled.{cls}").inc()
                    obs.event("admission.throttled", "queue",
                              node=server.node.index, traffic_class=cls)
                yield Timeout(cpu.bridge_fast_reject)
                raise BridgeThrottledError(
                    f"{server.name}: token bucket empty "
                    f"(rate {self.bucket.rate:g}/s, class {cls})"
                )
        self._bump(self.admitted, cls)
        if obs is not None:
            obs.metrics.counter(f"{server.name}.admission.admitted.{cls}").inc()

    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Plain-data outcome counters (per class), for results/JSON."""
        return {
            "offered": dict(sorted(self.offered.items())),
            "admitted": dict(sorted(self.admitted.items())),
            "throttled": dict(sorted(self.throttled.items())),
            "shed": dict(sorted(self.shed.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"AdmissionControl({self.policy!r}, "
                f"offered={sum(self.offered.values())}, "
                f"throttled={sum(self.throttled.values())}, "
                f"shed={sum(self.shed.values())})")


def build_admission(spec: Optional[dict]) -> Optional[AdmissionControl]:
    """Build one server's :class:`AdmissionControl` from a spec.

    ``spec`` is ``None`` (no control) or a dict ``{"policy": name,
    ...params}``.  Policies:

    * ``"none"`` — no control.
    * ``"token-bucket"`` — rate limit only (param ``rate``; the bucket
      holds ``max(1, rate / 20)`` tokens).
    * ``"bounded"`` — FIFO queue with load shedding (param ``depth``).
    * ``"fair"`` — weighted fair queueing over :data:`DEFAULT_WEIGHTS`
      plus shedding (param ``depth``).
    * ``"fifo"`` — unbounded measuring FIFO front-end (no refusals;
      exists to observe queue waits for the analysis cross-check).

    Each *server* needs its own instance (buckets and queues hold
    mutable state), so builders call this once per partition.
    """
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise TypeError(f"admission spec must be None or a dict, got {spec!r}")
    params = dict(spec)
    policy = params.pop("policy", "none")
    if policy in (None, "none"):
        return None
    if policy == "token-bucket":
        rate = params.pop("rate", 500.0)
        _reject_extras(policy, params)
        return AdmissionControl(policy, bucket=TokenBucket(rate))
    if policy == "bounded":
        depth = params.pop("depth", 32)
        _reject_extras(policy, params)
        return AdmissionControl(policy, queue=AdmissionQueue(depth=depth))
    if policy == "fair":
        depth = params.pop("depth", 32)
        _reject_extras(policy, params)
        return AdmissionControl(
            policy, queue=AdmissionQueue(depth=depth, weights=DEFAULT_WEIGHTS)
        )
    if policy == "fifo":
        _reject_extras(policy, params)
        return AdmissionControl(policy, queue=AdmissionQueue(depth=0))
    raise ValueError(f"unknown admission policy {policy!r}")


def _reject_extras(policy: str, params: Dict[str, Any]) -> None:
    if params:
        raise ValueError(
            f"admission policy {policy!r} got unknown parameters "
            f"{sorted(params)}"
        )
