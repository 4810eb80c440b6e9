"""Causal spans: request-scoped trees of timed, attributed intervals.

A :class:`Span` is one interval of simulated time with a *category*
(``client`` / ``net`` / ``server`` / ``disk`` / ``queue``), an optional
owning node, and a parent — so one naive Bridge read produces a linked
tree: client op span -> request message -> Bridge Server handler -> EFS
handler -> disk access -> response message.  Span IDs come from a
monotonic counter (no wall clock, no RNG): two identical runs produce
byte-identical trees.

Causality crosses process and node boundaries via :class:`SpanContext`
objects carried on :class:`repro.machine.rpc.Request` envelopes, and
crosses *process spawns* via the per-process ``obs_ctx`` attribute that
:class:`Observability` maintains (a spawned process inherits the
spawner's current span; every scheduler step restores the stepping
process's context).  Nothing here schedules simulation events: with the
subsystem attached, the event sequence is identical to a run without it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

#: Attribution categories (others are allowed; these are the canonical set).
CATEGORIES = ("client", "net", "server", "disk", "queue")


class Span:
    """One timed interval in a causal tree.  Created via Observability."""

    __slots__ = (
        "id", "parent_id", "name", "category", "node",
        "start", "end", "args", "background",
    )

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 category: str, node: Optional[int], start: float,
                 background: bool = False) -> None:
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.args: Optional[Dict[str, Any]] = None
        self.background = background

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return (
            f"Span(#{self.id} {self.name!r} cat={self.category} "
            f"[{self.start:.6f}, {end}])"
        )


class SpanContext:
    """Trace context carried on an RPC request envelope.

    ``span`` is the sender-side parent span; ``deliver_at`` is stamped by
    the interconnect instrumentation when the message's arrival time is
    known, so the receiver can attribute mailbox residency to *queueing*
    (delivered long before the server got to it) rather than to the
    network.
    """

    __slots__ = ("span", "sent_at", "deliver_at", "net_span")

    def __init__(self, span: Optional[Span]) -> None:
        self.span = span
        #: When the carrying message entered the network.
        self.sent_at: Optional[float] = None
        #: When it reaches the destination mailbox — stamped up front by
        #: networks that price transit at send time, or by
        #: :meth:`Observability.on_bus_drain` when a shared-medium model
        #: drains the frame.  None only while the frame is still queued.
        self.deliver_at: Optional[float] = None
        #: The pending ``msg`` span of a bus-queued frame, held until
        #: ``on_bus_drain`` can rewrite it with the exact wait/service
        #: breakdown.
        self.net_span: Optional[Span] = None


class Observability:
    """The S19 hub: spans + metrics for one simulation.

    Attach one instance to a :class:`~repro.sim.Simulator` (``sim.obs``);
    every instrumented layer guards with ``if sim.obs is not None`` so a
    detached run costs one branch per touch point and records nothing.

    ``capacity`` (``None``: unbounded; set the attribute) bounds the
    span list (a ring is pointless for causal trees, so overflow simply
    stops recording new spans and counts them in ``spans_dropped`` — the
    bound is a memory guard for very long simulations, not a sampling
    strategy).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.spans_dropped = 0
        self.capacity: Optional[int] = None
        self.metrics = MetricsRegistry()
        #: The span context of the currently-stepping process (None when
        #: no span is active).  Maintained by Process._step and by the
        #: instrumented server loops; read at message-send/span-begin time.
        self.current: Optional[Span] = None
        #: The Process whose generator is currently being stepped, so
        #: in-process code (which has no handle to its own Process) can
        #: rebind its context via :meth:`set_current`.
        self.current_process = None
        self._next_span_id = 1
        self._sim = None

    def attach(self, sim) -> "Observability":
        self._sim = sim
        return self

    @property
    def now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------

    def begin(self, name: str, category: str,
              parent: Optional[Span] = None, *, inherit: bool = True,
              node: Optional[int] = None, start: Optional[float] = None,
              background: bool = False) -> Optional[Span]:
        """Open a span.  ``parent=None`` with ``inherit=True`` (the
        default) parents under the current context; pass ``inherit=False``
        to force a root span.  Returns ``None`` once ``capacity`` spans
        have been recorded (callers must tolerate a ``None`` span)."""
        if self.capacity is not None and len(self.spans) >= self.capacity:
            self.spans_dropped += 1
            return None
        if parent is None and inherit:
            parent = self.current
        span = Span(
            self._next_span_id,
            parent.id if parent is not None else None,
            name,
            category,
            node,
            self.now if start is None else start,
            background=background,
        )
        self._next_span_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Optional[Span], end: Optional[float] = None,
            **args: Any) -> None:
        """Close a span (no-op for ``None``, so callers need no guard)."""
        if span is None:
            return
        span.end = self.now if end is None else end
        if args:
            if span.args is None:
                span.args = {}
            span.args.update(args)

    def event(self, name: str, category: str, duration: float = 0.0,
              node: Optional[int] = None, **args: Any) -> Optional[Span]:
        """A complete span of known duration, opened and closed at once."""
        span = self.begin(name, category, node=node)
        if span is not None:
            self.end(span, end=span.start + duration, **args)
        return span

    # ------------------------------------------------------------------
    # Process context plumbing
    # ------------------------------------------------------------------

    def set_current(self, span: Optional[Span]) -> None:
        """Make ``span`` the current context *and* the stepping process's
        sticky context, so it survives the process's subsequent yields
        (every scheduler step restores ``current`` from the process).

        Used by server loops (per-request), clients (per-call), and the
        prefetcher's slot workers (per-fetch).
        """
        self.current = span
        if self.current_process is not None:
            self.current_process.obs_ctx = span

    # ------------------------------------------------------------------
    # Interconnect hook (called by Node.send when attached)
    # ------------------------------------------------------------------

    def on_send(self, src_node, port, message: Any, size: int,
                latency: Optional[float]) -> None:
        """Record one message: a ``net`` span under the sender's current
        context and — when the message is an RPC envelope — trace-context
        propagation and arrival stamping."""
        src = src_node.index
        dst = port.node.index
        # Propagate causality on anything that can carry it (Request
        # envelopes have a trace_ctx field; payload messages do not).
        ctx = getattr(message, "trace_ctx", False)
        if ctx is None and self.current is not None:
            ctx = SpanContext(self.current)
            message.trace_ctx = ctx
        span = self.event(
            "msg", "net",
            duration=latency if latency is not None else 0.0,
            node=src, src=src, dst=dst, size=size,
        )
        if ctx:
            ctx.sent_at = self.now
            if latency is not None:
                ctx.deliver_at = self.now + latency
        if span is not None and latency is None:
            # The network model could not price this message up front
            # (e.g. the Ethernet bus queues it); mark the span so the
            # analyzer treats it as a zero-width marker until the bus
            # drains the frame and on_bus_drain rewrites it.
            span.args["queued"] = True
            if ctx:
                ctx.net_span = span

    def on_bus_drain(self, message: Any, start: float, end: float) -> None:
        """Stamp the exact arrival time of a bus-queued message.

        Shared-medium models (:class:`repro.machine.network.EthernetNetwork`)
        cannot price a remote frame at send time; they call back here once
        the transmitter has drained it.  The frame's pending ``msg`` span
        is rewritten to cover ``[sent_at, end)`` with a wait/service
        breakdown — time queued behind the bus vs. time on the wire — so
        the critical-path analyzer splits transit between ``net`` and
        ``queue`` exactly, and ``deliver_at`` is stamped so receiver-side
        mailbox residency is attributed to queueing, not the network.
        """
        ctx = getattr(message, "trace_ctx", None)
        if ctx is None:
            return
        ctx.deliver_at = end
        span = ctx.net_span
        if span is None:
            return
        ctx.net_span = None
        sent = ctx.sent_at if ctx.sent_at is not None else start
        span.end = end
        span.args.pop("queued", None)
        span.args["wait"] = max(0.0, start - sent)
        span.args["service"] = max(0.0, end - start)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def roots(self) -> List[Span]:
        """All parentless spans, in creation (= start) order."""
        return [s for s in self.spans if s.parent_id is None]

    def children_index(self) -> Dict[Optional[int], List[Span]]:
        """Map parent span id -> children in creation order."""
        index: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            index.setdefault(span.parent_id, []).append(span)
        return index

    def find(self, name_prefix: str) -> List[Span]:
        return [s for s in self.spans if s.name.startswith(name_prefix)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Observability({len(self.spans)} spans, "
            f"{len(self.metrics.names())} metrics)"
        )
