"""Observability (S19): where does a naive read's time actually go?

Builds a 4-node Bridge system with the observability subsystem enabled,
streams a file through the naive view, and then uses the recorded data
three ways:

1. prints one read's causal span tree (client -> message -> Bridge
   Server -> EFS -> back), the thing the Chrome trace renders visually;
2. attributes the whole read phase across client / net / server / disk /
   queue with the critical-path analyzer, next to the exact cost model;
3. dumps the op metrics (counters + latency histogram quantiles) and
   each disk's busy fraction (its own ``utilization()``), and exports a
   Chrome trace JSON you can drop into https://ui.perfetto.dev/.

Run: python examples/observability.py
"""

from repro.analysis.models import naive_read_components
from repro.harness import paper_system
from repro.obs import attribute_ops, span_tree_lines

BLOCKS = 64
TRACE_FILE = "trace_observability.json"


def main(p: int = 4) -> None:
    system = paper_system(p, obs=True, trace_export=TRACE_FILE)
    client = system.naive_client()

    def workload():
        yield from client.create("obs-demo", width=system.width)
        for i in range(BLOCKS):
            yield from client.seq_write("obs-demo", bytes([i % 256]) * 960)
        yield from client.open("obs-demo")
        for _ in range(BLOCKS):
            yield from client.seq_read("obs-demo")

    system.run(workload())
    obs = system.obs

    print(f"{p}-node system, {BLOCKS}-block naive stream: "
          f"{len(obs.spans)} spans recorded\n")

    print("one read, as a span tree:")
    read_root = obs.find("call.seq_read")[0]
    for line in span_tree_lines(obs, read_root):
        print(f"  {line}")

    print("\nread-phase attribution vs the exact cost model:")
    agg = attribute_ops(obs, "call.seq_read")
    model = naive_read_components(BLOCKS, resident=True)
    print(f"  {'component':<8} {'measured ms':>12} {'model ms':>10}")
    for category in sorted(agg["attribution_seconds"]):
        measured = agg["attribution_seconds"][category] * 1e3
        predicted = model.get(category, 0.0) * 1e3
        print(f"  {category:<8} {measured:>12.3f} {predicted:>10.3f}")
    total = sum(agg["attribution_seconds"].values())
    print(f"  partition total {total * 1e3:.3f} ms == measured latency "
          f"{agg['latency_seconds'] * 1e3:.3f} ms")

    print("\nop metrics:")
    for name in ("bridge.op.seq_read", "bridge.op.seq_write"):
        print(f"  {name} = {obs.metrics.counter(name).value}")
    latency = obs.metrics.histogram("bridge.op.seq_read.latency")
    print(f"  bridge.op.seq_read.latency: n={latency.count} "
          f"p50={latency.p50 * 1e3:.2f}ms p99={latency.p99 * 1e3:.2f}ms")

    print("\ndisk busy fractions over the run:")
    for disk in system.disks:
        print(f"  {disk.name}: {disk.utilization():.1%}")

    # run() already exported the trace (the trace_export knob).
    print(f"\nwrote {TRACE_FILE} — open it in Perfetto or chrome://tracing")


if __name__ == "__main__":
    main()
