"""Request/reply messaging on top of the machine's network model.

All Bridge components (EFS servers, the Bridge Server, tool workers) speak
the same envelope protocol: a :class:`Request` names a method, carries
arguments and where to reply — a client's reply port, or the
:class:`ReplyCell` of one fan-out leg; the server answers with a
:class:`Response` that either holds a value or an error to be re-raised
at the caller.

Servers are *single simulated processes* handling one request at a time —
deliberately, because the serialization of a centralized server is one of
the phenomena the paper measures (section 4.1: "if requests to the server
are frequent enough to cause a bottleneck...").
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.machine.node import Node, Port
from repro.obs.spans import SpanContext
from repro.sim import ReplyCell, Timeout


class Request:
    """A method invocation envelope.  Slotted: every field is declared,
    so a mark set on an undeclared name raises instead of vanishing."""

    __slots__ = ("method", "args", "reply_to", "size", "trace_ctx",
                 "traffic_class", "sent_at", "admission_shed")

    def __init__(self, method: str, args: Optional[Dict[str, Any]] = None,
                 reply_to: Union[Port, ReplyCell, None] = None, size: int = 0,
                 trace_ctx: Optional[Any] = None,
                 traffic_class: Optional[str] = None,
                 sent_at: Optional[float] = None) -> None:
        self.method = method
        self.args = {} if args is None else args
        self.reply_to = reply_to
        self.size = size  # payload bytes carried with the request
        # S19 trace context (repro.obs.SpanContext).  Stamped by the
        # sender — explicitly by instrumented call sites, or by the
        # interconnect hook for raw Request sends — and read by
        # Server._loop to link the handler span to its caller.  Always
        # None when observability is disabled.
        self.trace_ctx = trace_ctx
        # S21 traffic class ("naive", "tool", "parallel", "meta", ...).
        # Stamped by clients created with a ``traffic_class``; ``None``
        # classifies server-side by method name.  Admission policies and
        # per-class SLO accounting key off this.
        self.traffic_class = traffic_class
        # S21 send timestamp (simulated seconds).  Admission queues
        # measure a request's wait from here, so time spent in the server
        # mailbox while the server was busy counts — that sojourn is what
        # the queueing models in repro.analysis predict.
        self.sent_at = sent_at
        # S21: set by a depth-bounded AdmissionQueue on a request it
        # sheds; the Bridge Server's admission stage then fast-rejects it.
        self.admission_shed = False


class Response:
    """The server's answer: exactly one of ``value`` / ``error`` is set."""

    __slots__ = ("value", "error", "size", "trace_ctx")

    def __init__(self, value: Any = None, error: Optional[Exception] = None,
                 size: int = 0) -> None:
        self.value = value
        self.error = error
        self.size = size  # payload bytes carried with the response
        # S19 trace context, stamped by the interconnect hook at send
        # time (the server loop has restored the caller's span by then).
        # Lets shared-medium networks report the response frame's exact
        # drain time, so reply transit splits into net vs. queue like
        # requests do.
        self.trace_ctx: Optional[Any] = None


class Detached:
    """Handler result meaning: finish this request in a side process.

    The server loop spawns ``generator`` and immediately returns to its
    mailbox; the side process produces the eventual response (a plain
    value or a :class:`Response`) which is then sent to the caller.  Use
    for slow operations that must not serialize unrelated requests behind
    a single server (e.g. Bridge Delete, whose LFS walk is O(n/p))."""

    __slots__ = ("generator",)

    def __init__(self, generator) -> None:
        self.generator = generator


class Server:
    """Base class for simulated RPC servers.

    Subclasses implement generator methods named ``op_<method>`` taking the
    request's ``args`` as keyword arguments and returning the result value
    (they may ``yield`` to wait on disks, other servers, ...).  To attach a
    byte size to the response (block payloads crossing the network), return
    a :class:`Response` directly; plain return values are wrapped with
    ``size=0``.

    Application-level errors derived from :class:`Exception` raised by a
    handler are shipped back to the caller and re-raised there; they do not
    kill the server.
    """

    def __init__(self, node: Node, name: str) -> None:
        self.node = node
        self.name = name
        self.port = node.port(name)
        self.requests_served = 0
        self.busy_time = 0.0
        # S21: optional admission-queue front-end.  When installed (see
        # repro.traffic.admission) the loop drains its mailbox into the
        # scheduler and lets it pick the next request — bounded-depth
        # shedding and weighted fair queueing live there.  ``None`` (the
        # default) is the plain FIFO mailbox, byte-identical to the seed.
        self.scheduler = None
        # The request currently being dispatched; the Bridge Server's
        # admission stage reads this to classify and count without
        # re-plumbing the envelope through every handler signature.
        self._active_request: Optional[Request] = None
        # S22 live migration: per-name redirects installed by the elastic
        # resizer.  A request whose ``name`` argument maps here is
        # re-sent to the mapped port (original envelope, original
        # ``reply_to``) instead of dispatched — the double-read
        # forwarding window that keeps in-flight requests correct while
        # an entry is between partitions.  Empty dict = seed hot path
        # (one falsy check per request).
        self.forward_to: Dict[str, Port] = {}
        self.forwarded = 0
        self._forward_cost = 0.0  # subclasses charge their routing CPU
        self._forward_exempt: frozenset = frozenset()
        # S24 heat accounting: when a HeatMap is installed (see
        # repro.elastic.heat) every served request's busy time is
        # attributed to this server's partition and to the request's
        # ``name``/``names`` argument.  ``None`` (the default) is one
        # falsy check per request — no events scheduled, so the seed
        # event sequence is untouched.
        self.heat = None
        self.heat_partition = 0
        self._detached_name = f"{node.name}/{name}.detached"
        self.process = node.spawn(self._loop(), name=name, daemon=True)

    # ------------------------------------------------------------------

    def _next_request(self, scheduler):
        """Yield the next request an installed scheduler picks (generator,
        kernel-driven; without one, ``_loop`` receives inline).

        Drain every message that has already arrived into the scheduler
        (a non-blocking sweep — arrivals during service queued in the
        mailbox), then let it pick; only when it holds nothing do we fall
        back to a blocking receive."""
        mailbox = self.port.mailbox
        sim = self.node.machine.sim
        while True:
            message = mailbox.poll()
            if message is None:
                break
            scheduler.enqueue(message, sim.now)
        if not len(scheduler):
            message = yield mailbox
            scheduler.enqueue(message, sim.now)
        return scheduler.pick(sim.now)

    def _loop(self):
        sim = self.node.machine.sim
        mailbox = self.port.mailbox
        handlers: Dict[str, Any] = {}  # method -> bound op_* handler
        while True:
            scheduler = self.scheduler
            if scheduler is None:
                request = yield mailbox
            else:
                request = yield from self._next_request(scheduler)
            if self.forward_to and request.method not in self._forward_exempt:
                target = self.forward_to.get(request.args.get("name"))
                if target is not None:
                    yield from self._forward(sim, request, target)
                    continue
            self._active_request = request
            started = sim.now
            obs = sim.obs
            server_span = None
            if obs is not None:
                server_span = self._begin_request(obs, request)
            handler = handlers.get(request.method)
            if handler is None:
                handler = handlers[request.method] = getattr(
                    self, "op_" + request.method, None)
            if handler is None:
                response = Response(
                    error=NotImplementedError(
                        f"{self.name}: unknown method {request.method!r}"
                    )
                )
            else:
                try:
                    result = yield from handler(**request.args)
                except Exception as exc:  # ship application errors back
                    response = Response(error=exc)
                else:
                    if isinstance(result, Detached):
                        # The side process replies and closes the span;
                        # named as node.spawn would name it.
                        sim.spawn(
                            self._finish_detached(
                                result.generator, request, server_span, started
                            ),
                            name=self._detached_name,
                        )
                        response = None
                    elif isinstance(result, Response):
                        response = result
                    else:
                        response = Response(result)
            self.requests_served += 1
            self.busy_time += sim.now - started
            if self.heat is not None:
                self.heat.record(self.heat_partition, request,
                                 sim.now - started, sim.now)
            if response is not None:
                if obs is not None:
                    self._end_request(obs, request, server_span, started)
                if request.reply_to is not None:
                    self.node.send(request.reply_to, response, response.size)
            if obs is not None:
                obs.set_current(None)

    def _forward(self, sim, request: Request, target: Port):
        """Redirect a misrouted request (S22 double-read window): charge
        the routing CPU and re-send the original envelope — same args,
        same ``reply_to``, same trace context — to the entry's current
        home.  The reply flows straight from there to the caller."""
        obs = sim.obs
        span = None
        if obs is not None:
            ctx = request.trace_ctx
            span = obs.begin(
                f"{self.name}.forward", "server",
                parent=ctx.span if ctx is not None else None,
                inherit=False, node=self.node.index,
            )
        if self._forward_cost > 0.0:
            yield Timeout(self._forward_cost)
            self.busy_time += self._forward_cost
        self.forwarded += 1
        self.requests_served += 1
        if obs is not None:
            obs.end(span, method=request.method, target=target.name)
        self.node.send(target, request, size=request.size)

    # -- S19 per-request instrumentation -------------------------------

    def _begin_request(self, obs, request: Request):
        """Open the handler span (plus a mailbox-wait span when the
        request sat queued) and make it the loop's current context."""
        ctx = request.trace_ctx
        parent = ctx.span if ctx is not None else None
        started = obs.now
        if ctx is not None:
            queued_from = ctx.deliver_at if ctx.deliver_at is not None else ctx.sent_at
            if queued_from is not None and started - queued_from > 1e-12:
                wait_span = obs.begin(
                    "mailbox_wait", "queue", parent=parent, inherit=False,
                    node=self.node.index, start=queued_from,
                )
                obs.end(wait_span, end=started)
        span = obs.begin(
            f"{self.name}.{request.method}", "server",
            parent=parent, inherit=False, node=self.node.index,
        )
        obs.set_current(span)
        obs.metrics.counter(f"{self.name}.op.{request.method}").inc()
        return span

    def _end_request(self, obs, request: Request, span, started: float) -> None:
        """Close the handler span; response transit (sent next) parents
        under the *caller's* span so its partition stays exact."""
        obs.end(span)
        obs.metrics.histogram(
            f"{self.name}.op.{request.method}.latency"
        ).observe(obs.now - started)
        ctx = request.trace_ctx
        obs.current = ctx.span if ctx is not None else None

    def _finish_detached(self, generator, request: Request, span=None,
                         started: float = 0.0):
        try:
            value = yield from generator
        except Exception as exc:
            response = Response(error=exc)
        else:
            response = value if isinstance(value, Response) else Response(value=value)
        obs = self.node.machine.sim.obs
        if obs is not None:
            self._end_request(obs, request, span, started)
        if request.reply_to is not None:
            self.node.send(request.reply_to, response, size=response.size)
        if obs is not None:
            obs.set_current(None)

class Client:
    """Client-side helper for sequential RPC.

    One :class:`Client` supports one outstanding call at a time (it owns a
    single reply port).  Parallel outstanding requests go through
    :func:`gather` / :func:`gather_settled`, which give each leg its own
    :class:`ReplyCell`.
    """

    def __init__(self, node: Node, name: str = "client",
                 traffic_class: Optional[str] = None) -> None:
        self.node = node
        self.reply_port = node.port(f"{name}.reply")
        # S21: stamped onto every outgoing request so admission policies
        # and SLO recording can account per class.  None = untagged.
        self.traffic_class = traffic_class

    def call(self, port: Port, method: str, size: int = 0, **args):
        """Generator performing one call: ``value = yield from client.call(...)``."""
        node = self.node
        sim = node.machine.sim
        request = Request(method, args, self.reply_port, size, None,
                          self.traffic_class, sim.now)
        obs = sim.obs
        span = None
        prev = None
        if obs is not None:
            prev = obs.current
            span = obs.begin(f"call.{method}", "client", node=node.index)
            request.trace_ctx = SpanContext(span)
            obs.set_current(span)
        node.send(port, request, size)
        response = yield self.reply_port.mailbox
        if obs is not None:
            obs.end(span, target=port.name)
            obs.set_current(prev)
        if response.error is not None:
            raise response.error
        return response.value


def gather(node: Node, calls, max_in_flight: Optional[int] = None):
    """Issue many requests in parallel and collect replies in call order.

    ``calls`` is a list of ``(port, method, args_dict, size)`` tuples.
    Each call gets its own :class:`ReplyCell`, so replies stay associated
    with their requests regardless of arrival order.  The generator
    completes when the *slowest* reply arrives; the first error reply in
    call order is re-raised at once, without waiting for later legs.
    This is the fan-out primitive behind the Bridge Server's
    parallel Create/Delete/Open/Read/Write and the list-I/O batch fan-out.

    ``max_in_flight`` bounds the fan-out: at most that many requests are
    outstanding at once, issued in windows (a wide machine can otherwise
    flood a server's mailbox with hundreds of block requests at once).
    ``None`` (the default) issues everything immediately.

    A failed sub-call re-raises the server's error *with the originating
    call attached*: the exception gains ``gather_port`` / ``gather_method``
    / ``gather_index`` attributes (and a traceback note on Pythons that
    support ``add_note``), so "disk failed" surfaces as "disk failed while
    calling read on efs3@node3 (call #5 of 8)" instead of a bare error
    with no hint which fan-out leg died.
    """
    return _fan_out(node, calls, max_in_flight, settle=False)


def gather_settled(node: Node, calls, max_in_flight: Optional[int] = None):
    """Like :func:`gather`, but per-call errors are returned, not raised.

    Returns a list of ``(value, error)`` pairs in call order — exactly
    one of the two is set per pair.  The S23 batched metadata handlers
    use this to chase names caught in a migration's forwarding window,
    and a degraded read to fetch a stripe's surviving peers: each leg
    must settle independently (a deleted name's not-found is *that
    name's* outcome; a short peer is a zero block), so the fail-fast
    semantics of :func:`gather` are exactly wrong here.  Windowing and
    per-leg span accounting are :func:`gather`'s — it is the same body.
    """
    return _fan_out(node, calls, max_in_flight, settle=True)


def _fan_out(node: Node, calls, max_in_flight: Optional[int], settle: bool):
    """The windowed send-and-collect behind :func:`gather` and
    :func:`gather_settled`; ``settle`` decides only what an error reply
    becomes (a ``(None, error)`` result, or a raise)."""
    if max_in_flight is not None and max_in_flight < 1:
        raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
    calls = list(calls)
    if not calls:
        return []
    total = len(calls)
    window = total if max_in_flight is None else max_in_flight
    sim = node.machine.sim
    obs = sim.obs
    prev = obs.current if obs is not None else None
    results = []
    cells = []  # this window's, in call order
    legs = []  # their client spans, with obs on
    for window_start in range(0, total, window):
        for index in range(window_start, min(window_start + window, total)):
            port, method, args, size = calls[index]
            cell = ReplyCell(node)
            request = Request(method, args, cell, size, None, None, sim.now)
            if obs is not None:
                # One client-side span per fan-out leg; sends don't yield,
                # so flipping obs.current around the send needs no sticky
                # process-context update.
                leg = obs.begin(f"gather.{method}", "client",
                                parent=prev, inherit=False, node=node.index)
                request.trace_ctx = SpanContext(leg)
                obs.current = leg
                legs.append(leg)
            node.send(port, request, size)
            if obs is not None:
                obs.current = prev
            cells.append(cell)
        for offset, cell in enumerate(cells):
            response = yield cell
            if obs is not None:
                obs.end(legs[offset])
            if settle:
                results.append((response.value, response.error))
            elif response.error is None:
                results.append(response.value)
            else:
                index = window_start + offset
                port, method, _args, _size = calls[index]
                raise _annotate_gather_error(
                    response.error, port, method, index, total
                )
        cells.clear()
        legs.clear()
    return results


def _annotate_gather_error(error: Exception, port: Port, method: str,
                           index: int, total: int) -> Exception:
    """Attach the originating call to a gathered error, preserving type."""
    error.gather_port = port
    error.gather_method = method
    error.gather_index = index
    note = (
        f"while calling {method!r} on {port.name}@node{port.node.index} "
        f"(gather call #{index} of {total})"
    )
    if hasattr(error, "add_note"):  # Python >= 3.11
        error.add_note(note)
    return error
