"""Chrome trace-event export: load span trees in Perfetto / chrome://tracing.

Emits the legacy JSON trace-event format (the one both Perfetto and
``chrome://tracing`` accept): a ``traceEvents`` array of complete
(``"ph": "X"``) events with microsecond timestamps.  Simulated nodes map
to *pids* and span categories to *tids*, so each node renders as a
process row with client / net / server / disk / queue tracks — a naive
read draws as a staircase Bridge -> LFS -> disk and back.

Span ancestry does not survive the flame rendering for spans that live
on different nodes, so every event's ``args`` carries ``span_id`` /
``parent_id``; the determinism tests reload the tree from those.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

#: Track (tid) ordering within a node's process row.
_CATEGORY_TRACKS = {"client": 0, "server": 1, "disk": 2, "queue": 3, "net": 4}


def chrome_trace_events(obs) -> List[Dict[str, object]]:
    """Render an Observability's finished spans as trace-event dicts."""
    events: List[Dict[str, object]] = []
    for span in obs.spans:
        if span.end is None:
            continue
        args: Dict[str, object] = {
            "span_id": span.id,
            "parent_id": span.parent_id,
        }
        if span.background:
            args["background"] = True
        if span.args:
            args.update(span.args)
        pid = span.node if span.node is not None else 0
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": _CATEGORY_TRACKS.get(span.category, 9),
            "args": args,
        })
    return events


def chrome_trace_document(obs) -> Dict[str, object]:
    """The full JSON-object trace: events plus display metadata."""
    events = chrome_trace_events(obs)
    # Metadata events name the pid/tid rows in the viewer.
    nodes = sorted({e["pid"] for e in events})
    for pid in nodes:
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"node {pid}"},
        })
        for category, tid in sorted(_CATEGORY_TRACKS.items(),
                                    key=lambda item: item[1]):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": category},
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "spans": len(obs.spans),
            "spans_dropped": obs.spans_dropped,
        },
    }


def export_chrome_trace(obs, path: str) -> str:
    """Write the trace JSON to ``path`` (deterministic bytes) and return it."""
    document = chrome_trace_document(obs)
    text = json.dumps(document, indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")
    return path


def validate_trace_document(document: Dict[str, object]) -> List[str]:
    """Check a trace document against the trace-event schema basics.

    Returns a list of problems (empty means valid).  Used by the tests
    and the CI artifact step instead of shipping a JSON-schema dep.
    """
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M"):
            problems.append(f"event {i}: unexpected phase {phase!r}")
            continue
        for key, kinds in (("name", str), ("pid", int), ("tid", int)):
            if not isinstance(event.get(key), kinds):
                problems.append(f"event {i}: bad {key!r}")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(f"event {i}: bad {key!r}")
    return problems


def diff_trace_documents(baseline: Dict[str, object],
                         candidate: Dict[str, object]) -> List[str]:
    """Span-for-span comparison of two exported trace documents.

    Returns an empty list when the traces are identical.  On drift it
    returns a report naming the first diverging span event and rendering
    the offending subtree from both documents, so a CI failure shows
    *where* in the request path the event sequence changed rather than
    just that it did.
    """
    base_events = [e for e in baseline.get("traceEvents", []) if e.get("ph") == "X"]
    cand_events = [e for e in candidate.get("traceEvents", []) if e.get("ph") == "X"]

    def key(event):
        return (event["name"], event["cat"], event["pid"], event["tid"],
                event["ts"], event["dur"], event["args"].get("parent_id"))

    first = None
    for index in range(min(len(base_events), len(cand_events))):
        if key(base_events[index]) != key(cand_events[index]):
            first = index
            break
    if first is None:
        if len(base_events) != len(cand_events):
            first = min(len(base_events), len(cand_events))
        elif baseline != candidate:
            return ["trace documents differ outside span events "
                    "(metadata / otherData)"]
        else:
            return []
    report = [
        f"span sequence drift at event index {first} "
        f"(baseline: {len(base_events)} spans, candidate: {len(cand_events)})"
    ]
    for label, events in (("baseline", base_events), ("candidate", cand_events)):
        report.append(f"--- offending subtree ({label}) ---")
        report.extend(_offending_subtree(events, first) or ["  <no span at this index>"])
    return report


def _offending_subtree(events: List[Dict[str, object]],
                       index: int) -> List[str]:
    """Render the root-anchored subtree containing ``events[index]``,
    marking the offending span with ``>>`` (the first 80 lines)."""
    if index >= len(events):
        return []
    by_id = {e["args"]["span_id"]: e for e in events}
    children: Dict[object, List[Dict[str, object]]] = {}
    for event in events:
        children.setdefault(event["args"].get("parent_id"), []).append(event)
    target = events[index]
    root = target
    while root["args"].get("parent_id") in by_id:
        root = by_id[root["args"]["parent_id"]]
    lines: List[str] = []

    def render(event, depth: int) -> None:
        if len(lines) >= 80:
            return
        marker = ">> " if event is target else "   "
        lines.append(
            f"{marker}{'  ' * depth}{event['name']} [{event['cat']}] "
            f"pid={event['pid']} ts={event['ts']:.3f} dur={event['dur']:.3f}"
        )
        for child in children.get(event["args"]["span_id"], ()):
            render(child, depth + 1)

    render(root, 0)
    if len(lines) >= 80:
        lines.append("   ... (subtree truncated)")
    return lines


def span_tree_lines(obs, root=None) -> List[str]:
    """ASCII rendering of a span tree, for reports and examples."""
    children = obs.children_index()

    def render(span, depth: int, out: List[str]) -> None:
        marker = " (bg)" if span.background else ""
        out.append(
            f"{'  ' * depth}{span.name} [{span.category}] "
            f"{span.start * 1e3:.3f}..{(span.end or span.start) * 1e3:.3f} ms"
            f"{marker}"
        )
        for child in children.get(span.id, ()):
            render(child, depth + 1, out)

    lines: List[str] = []
    roots = [root] if root is not None else obs.roots()
    for span in roots:
        render(span, 0, lines)
    return lines
