"""The ledger's own spans and progress marks, on the host clock.

Recorded from the benchmark's files, around the calls into each layer
(workload -> rep -> phase -> rung/window); spans inside the program are
the S19 subsystem's business.  Records stay in memory and are written
out once, as Chrome-trace JSON, when the run ends.

A *mark* is a timestamp taken at a deterministic point of a workload:
every span edge is one, and the workloads add one every few
operations.  Two marks in a row bound a *slice* about a millisecond
long, owned by the innermost open span.  Every repetition of a
workload has the same slices, so each can be taken at its fastest
(see ``fastest_slices``).
"""

import os
import time
from contextlib import contextmanager


class SpanLog:
    """An in-memory list of ``{id, parent, name, start, end, args}``
    records sharing one run id."""

    def __init__(self):
        self.run_id = f"{os.getpid():x}-{time.time_ns():x}"
        self.records = []
        self.marks = []  # (id of the innermost open span, timestamp)
        self._open = []

    @contextmanager
    def span(self, name, **args):
        record = {
            "id": len(self.records),
            "parent": self._open[-1] if self._open else None,
            "name": name, "args": args,
            "start": time.perf_counter(), "end": None,
            "first_mark": len(self.marks), "last_mark": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        self.marks.append((record["id"], record["start"]))
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.marks.append((record["parent"], record["end"]))
            record["last_mark"] = len(self.marks)

    def mark(self):
        """A progress mark: call at a deterministic point of the work."""
        self.marks.append((self._open[-1], time.perf_counter()))

    def slices_under(self, span):
        """The slices of one finished span (a repetition), in order:
        ``[(names of the owning span and its ancestors, seconds)]``."""
        names = {span["parent"]: ()}
        for record in self.records[span["id"]:]:
            if record["parent"] in names:
                names[record["id"]] = (
                    (record["name"],) + names[record["parent"]])
        marks = self.marks[span["first_mark"]:span["last_mark"]]
        return [(names[owner], later - at)
                for (owner, at), (_owner, later) in zip(marks, marks[1:])]

    def chrome_events(self):
        """Complete ("X") trace events, microseconds from the first span."""
        if not self.records:
            return []
        origin = self.records[0]["start"]
        return [
            {
                "name": r["name"], "ph": "X", "cat": "ledger",
                "pid": self.run_id, "tid": 0,
                "ts": (r["start"] - origin) * 1e6,
                "dur": ((r["end"] or r["start"]) - r["start"]) * 1e6,
                "args": {"id": r["id"], "parent": r["parent"],
                         "run": self.run_id, **r["args"]},
            }
            for r in self.records
        ]


def fastest_slices(repetitions):
    """Slice by slice, the fastest of several repetitions.

    The work is deterministic and the host only ever adds time to it,
    in spells that come and go within a millisecond as well as ones
    that last a minute, so each slice counts at its fastest."""
    return [
        (same_slice[0][0], min(seconds for _names, seconds in same_slice))
        for same_slice in zip(*repetitions, strict=True)
    ]


def durations(slices):
    """``{span name: seconds}``: a span's time is the sum over its own
    slices and its children's."""
    out = {}
    for names, seconds in slices:
        for name in names:
            out[name] = out.get(name, 0.0) + seconds
    return out
