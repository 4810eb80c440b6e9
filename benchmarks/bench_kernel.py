"""Host-side performance of the simulation kernel itself.

Not a paper artifact — this measures the substrate's wall-clock
throughput (events/second, RPC round trips/second) so regressions in the
kernel show up in the benchmark suite.  Uses real multi-round
pytest-benchmark timing since these are wall-clock measurements.

Two floors, both about 3x under what the ledger host measures
(``benchmarks/ledger/README.md``), so a 0.55x host spell still clears
them while a real regression does not:

* ``EVENTS_PER_SECOND_FLOOR`` guards the S21 hot-path work (cached
  ``_resume`` dispatch, zero-listener run loop) on the bare kernel —
  measured 1.6 M timeout events/s; a regression such as reintroducing
  per-event bound-method allocation falls under it.
* ``FULL_STACK_EVENTS_PER_SECOND_FLOOR`` guards the layers above it:
  events per host second of a p = 8 paper-configuration naive read
  stream (Bridge Server + RPC + EFS + storage per block) — measured
  265 k events/s.

Also runnable as a script (the CI smoke job)::

    PYTHONPATH=src python benchmarks/bench_kernel.py --quick
"""

import sys
import time

from repro.harness import paper_system
from repro.machine import Client, Machine, Server
from repro.sim import Mailbox, Simulator, Timeout

#: Wall-clock floor for the zero-listener fast path (measured 1.6 M/s).
EVENTS_PER_SECOND_FLOOR = 500_000
#: Wall-clock floor for the whole stack under a naive read stream
#: (measured 265 k/s).
FULL_STACK_EVENTS_PER_SECOND_FLOOR = 85_000


def _timeout_storm(events: int = 100_000):
    """Pure-Timeout run: the zero-listener fast path, nothing else."""
    sim = Simulator()

    def ticker():
        for _ in range(events):
            yield Timeout(0.001)

    sim.spawn(ticker())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_executed, elapsed


def _naive_read_stream(blocks: int = 4_000):
    """Sequential naive-view reads of a ``blocks``-block file on the
    paper's system at p = 8: every layer runs once per block."""
    system = paper_system(8)
    client = system.naive_client()

    def write():
        yield from client.create("stream")
        for index in range(blocks):
            yield from client.seq_write("stream", bytes([index % 251]) * 960)

    def read():
        yield from client.open("stream")
        for _ in range(blocks):
            yield from client.seq_read("stream")

    system.run(write())
    before = system.sim.events_executed
    start = time.perf_counter()
    system.run(read())
    elapsed = time.perf_counter() - start
    return system.sim.events_executed - before, elapsed


def _rate(executed: int, elapsed: float) -> float:
    return executed / elapsed if elapsed > 0 else float("inf")


def test_kernel_timeout_events_per_second(benchmark):
    def run():
        sim = Simulator()

        def ticker():
            for _ in range(20_000):
                yield Timeout(0.001)

        sim.spawn(ticker())
        sim.run()
        return sim.events_executed

    events = benchmark(run)
    assert events >= 20_000


def test_kernel_message_ping_pong(benchmark):
    def run():
        sim = Simulator()
        left = Mailbox(sim, "left")
        right = Mailbox(sim, "right")

        def ping():
            for _ in range(5_000):
                right.deliver("ping")
                yield left.recv()

        def pong():
            for _ in range(5_000):
                yield right.recv()
                left.deliver("pong")

        sim.spawn(ping())
        sim.spawn(pong())
        sim.run()
        return True

    assert benchmark(run)


class _NullServer(Server):
    def op_noop(self):
        yield Timeout(0.0)
        return None


def test_kernel_rpc_roundtrips(benchmark):
    def run():
        sim = Simulator()
        machine = Machine(sim, 2)
        server = _NullServer(machine.node(0), "null")
        client = Client(machine.node(1))

        def caller():
            for _ in range(2_000):
                yield from client.call(server.port, "noop")

        sim.run_process(caller())
        return server.requests_served

    served = benchmark(run)
    assert served == 2_000


def test_kernel_events_per_second_floor(benchmark):
    rate = benchmark(lambda: _rate(*_timeout_storm()))
    assert rate >= EVENTS_PER_SECOND_FLOOR, (
        f"kernel fast path at {rate:,.0f} ev/s, "
        f"floor is {EVENTS_PER_SECOND_FLOOR:,}"
    )


def test_full_stack_events_per_second_floor(benchmark):
    rate = benchmark(lambda: _rate(*_naive_read_stream(1_000)))
    assert rate >= FULL_STACK_EVENTS_PER_SECOND_FLOOR, (
        f"naive read stream at {rate:,.0f} ev/s, "
        f"floor is {FULL_STACK_EVENTS_PER_SECOND_FLOOR:,}"
    )


def _check_floor(label: str, storm, floor: int) -> None:
    best = 0.0
    for _attempt in range(3):  # best-of-3 absorbs host noise
        executed, elapsed = storm()
        best = max(best, _rate(executed, elapsed))
    print(f"{label}: {best:,.0f} events/s ({executed:,} events, best of 3)")
    assert best >= floor, f"{label} at {best:,.0f} ev/s, floor is {floor:,}"


def main(argv) -> int:
    quick = "--quick" in argv
    _check_floor("kernel fast path",
                 lambda: _timeout_storm(20_000 if quick else 100_000),
                 EVENTS_PER_SECOND_FLOOR)
    _check_floor("naive read stream",
                 lambda: _naive_read_stream(1_000 if quick else 4_000),
                 FULL_STACK_EVENTS_PER_SECOND_FLOOR)
    print("kernel and full-stack floors: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
