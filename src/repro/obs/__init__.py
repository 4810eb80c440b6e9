"""S19 observability subsystem: causal spans, metrics, critical paths.

One :class:`Observability` instance attaches to a simulator (``sim.obs``)
and every instrumented layer records into it — synchronously, scheduling
zero extra simulation events, so an obs-enabled run executes the exact
event sequence of a bare run.  ``sim.obs is None`` (the default) skips
everything.  Facts a component already keeps (device wait/service
histograms, cache counters) are adopted into the registry, not recorded
twice.

Quickstart::

    from repro.harness import paper_system
    from repro.obs import attribute_ops, export_chrome_trace

    system = paper_system(lfs_count=8, obs=True)
    system.run(my_workload(system))
    print(attribute_ops(system.sim.obs, "bridge.seq_read"))
    export_chrome_trace(system.sim.obs, "trace.json")  # load in Perfetto
"""

from repro.obs.critical import (
    attribute,
    attribute_ops,
    critical_path,
)
from repro.obs.export import (
    chrome_trace_document,
    diff_trace_documents,
    chrome_trace_events,
    export_chrome_trace,
    span_tree_lines,
    validate_trace_document,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import CATEGORIES, Observability, Span, SpanContext

__all__ = [
    "CATEGORIES",
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanContext",
    "attribute",
    "attribute_ops",
    "chrome_trace_document",
    "diff_trace_documents",
    "chrome_trace_events",
    "critical_path",
    "export_chrome_trace",
    "span_tree_lines",
    "validate_trace_document",
]
