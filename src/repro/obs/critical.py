"""Critical-path analysis: where did this operation's latency go?

The analyzer walks one op's span tree and *partitions* the root interval
across attribution categories — disk, interconnect (net), server,
client, queueing.  Partitioning (rather than summing child durations)
is what makes the invariant hold by construction:

    sum(attribution.values()) == root.duration   (exactly)

Rules:

* a child span owns the sub-interval it covers, clipped to its parent's
  window and to the walk cursor (overlap is never double-counted);
* time inside a span not covered by any foreground child is *self time*
  and goes to the span's own category;
* ``background=True`` spans (prefetch fetches that overlap and outlive
  the demand path) are excluded from the partition — they still appear
  in exports, but attributing them would double-count wall time;
* a span carrying a wait/service breakdown in its args — disk accesses
  (time waiting for the arm) and Ethernet frames (time queued behind the
  shared bus) — has its self time split between its own category (the
  service share) and ``queue`` (the wait share).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.spans import CATEGORIES, Observability, Span


def attribute(obs: Observability, root: Span) -> Dict[str, float]:
    """Partition ``root``'s latency over categories; sums to its duration."""
    return _attribute(root, obs.children_index())


def _attribute(root: Span,
               children: Dict[Optional[int], List[Span]]) -> Dict[str, float]:
    totals: Dict[str, float] = {category: 0.0 for category in CATEGORIES}
    _walk(root, root.start, root.end if root.end is not None else root.start,
          children, totals)
    return totals


def _credit_self(span: Span, amount: float, totals: Dict[str, float]) -> None:
    """Credit a span's self time.

    A span stamped with a ``wait``/``service`` breakdown — disk accesses
    waiting for the arm, bus-queued messages waiting for the shared
    medium — splits its self time between its own category (the service
    share) and ``queue`` (the wait share)."""
    if amount <= 0.0:
        return
    if span.args:
        wait = span.args.get("wait")
        service = span.args.get("service")
        if wait is not None and service is not None and (wait + service) > 0.0:
            own_share = amount * service / (wait + service)
            totals[span.category] = totals.get(span.category, 0.0) + own_share
            totals["queue"] = totals.get("queue", 0.0) + (amount - own_share)
            return
    totals[span.category] = totals.get(span.category, 0.0) + amount


def _walk(span: Span, lo: float, hi: float,
          children: Dict[Optional[int], List[Span]],
          totals: Dict[str, float]) -> None:
    cursor = lo
    for child in children.get(span.id, ()):
        if child.background or child.end is None:
            continue
        child_lo = max(child.start, cursor)
        child_hi = min(child.end, hi)
        if child_hi <= child_lo:
            continue
        _credit_self(span, child_lo - cursor, totals)
        _walk(child, child_lo, child_hi, children, totals)
        cursor = child_hi
    _credit_self(span, hi - cursor, totals)


def attribute_ops(obs: Observability,
                  name_prefix: str = "") -> Dict[str, object]:
    """Aggregate attribution over every finished root span matching
    ``name_prefix`` (empty prefix = all roots).  The children index is
    built once and shared by every root's walk."""
    totals: Dict[str, float] = {category: 0.0 for category in CATEGORIES}
    children = obs.children_index()
    latency = 0.0
    count = 0
    for root in obs.roots():
        if root.end is None or root.background:
            continue
        if name_prefix and not root.name.startswith(name_prefix):
            continue
        for category, seconds in _attribute(root, children).items():
            totals[category] = totals.get(category, 0.0) + seconds
        latency += root.duration
        count += 1
    return {
        "ops": count,
        "latency_seconds": latency,
        "attribution_seconds": totals,
        "attribution_fractions": {
            category: (seconds / latency if latency > 0.0 else 0.0)
            for category, seconds in totals.items()
        },
    }


def critical_path(obs: Observability, root: Span) -> List[Span]:
    """The chain of foreground spans covering the largest share of each
    level's window — the op's critical path, root first."""
    children = obs.children_index()
    path = [root]
    span = root
    while True:
        candidates = [
            child for child in children.get(span.id, ())
            if not child.background and child.end is not None
        ]
        if not candidates:
            return path
        span = max(candidates, key=lambda child: (child.duration, -child.id))
        path.append(span)
