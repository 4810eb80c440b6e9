"""Host-side performance of the simulation kernel itself.

Not a paper artifact — this measures the substrate's wall-clock
throughput (events/second, RPC round trips/second) so regressions in the
kernel show up in the benchmark suite.  Uses real multi-round
pytest-benchmark timing since these are wall-clock measurements.

Six floors, each about a third of what a 2-vCPU Python 3.11 host
measures (best of 3), so a 0.55x host spell still clears them while a
real regression does not.  Where a noisy re-measurement came in lower
than the last quiet one, the floor stayed where it was (the last
re-measurement, beside the same-instant ready queue, ran in a spell
that halved every rate, parent and change alike):

* ``EVENTS_PER_SECOND_FLOOR`` guards the bare kernel on a pure
  ``Timeout`` stream (``Process._step``'s inline dispatch, cached
  ``_resume``, zero-listener run loop) — measured 1.3–1.8 M timeout
  events/s; a regression such as reintroducing per-event bound-method
  allocation or a ``_wait`` frame per yield falls under it.  Every
  event of this stream is on the heap, so it pays the ready queue's
  checks and gains nothing from it (0.65–1.19 M before it, 0.75–0.88 M
  after, in the slow spell).
* ``MAILBOX_MSGS_PER_SECOND_FLOOR`` guards message passing: two
  processes ping-ponging through two mailboxes (``deliver`` puts the
  resume on the ready queue, the receive is dispatched inline) —
  measured 1.9–2.2 M msgs/s (0.81–1.08 M before the ready queue and
  1.27–1.66 M after, in the slow spell).
* ``RPC_ROUNDTRIPS_PER_SECOND_FLOOR`` guards the RPC path over the
  Butterfly network: ``Client.call`` to a server whose handler charges
  one zero ``Timeout`` (slotted envelopes, inline server receive) —
  measured 259 k round trips/s.
* ``FULL_STACK_WRITE_EVENTS_PER_SECOND_FLOOR`` and
  ``FULL_STACK_EVENTS_PER_SECOND_FLOOR`` guard the layers above it:
  events per host second of a p = 8 paper-configuration naive write
  stream (an EFS append and two device writes per block) and read
  stream (a hinted EFS read per block), Bridge Server + RPC + EFS +
  storage per block — measured 444 k and 417 k events/s.
* ``SORT_P32_EVENTS_PER_SECOND_FLOOR`` guards the tool view on the
  widest fabric: events per host second of a small Table 4 sort at
  p = 32, where half the events are due at the instant already
  running — measured 218–345 k events/s before the ready queue and
  257–396 k after, in the slow spell.

Also runnable as a script (the CI smoke job checks all six floors)::

    PYTHONPATH=src python benchmarks/bench_kernel.py --quick
"""

import sys
import time

from repro.harness import paper_system
from repro.machine import Client, Machine, Server
from repro.sim import Mailbox, Simulator, Timeout
from repro.tools import SortTool
from repro.workloads import build_file, record_chunks, uniform_keys

#: Floor for the zero-listener Timeout fast path (measured 1.3–1.8 M/s).
EVENTS_PER_SECOND_FLOOR = 600_000
#: Floor for mailbox ping-pong, in messages (measured 1.9–2.2 M/s).
MAILBOX_MSGS_PER_SECOND_FLOOR = 700_000
#: Floor for null-handler RPC round trips (measured 259 k/s).
RPC_ROUNDTRIPS_PER_SECOND_FLOOR = 85_000
#: Floor for the whole stack under a naive read stream (measured 417 k/s).
FULL_STACK_EVENTS_PER_SECOND_FLOOR = 140_000
#: Floor for the whole stack under a naive write stream (measured 444 k/s).
FULL_STACK_WRITE_EVENTS_PER_SECOND_FLOOR = 145_000
#: Floor for a p = 32 sort, the tool view on the widest fabric (measured
#: 257–396 k/s in a slow spell).
SORT_P32_EVENTS_PER_SECOND_FLOOR = 100_000


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


def _ping_pong(pairs: int = 50_000):
    """Two processes bouncing ``pairs`` messages each way; returns the
    messages delivered (``2 * pairs``) and the host seconds."""
    sim = Simulator()
    left = Mailbox(sim, "left")
    right = Mailbox(sim, "right")

    def ping():
        for index in range(pairs):
            right.deliver(index)
            yield left.recv()

    def pong():
        for _ in range(pairs):
            left.deliver((yield right.recv()))

    sim.spawn(pong())
    sim.spawn(ping())
    start = time.perf_counter()
    sim.run()
    return 2 * pairs, time.perf_counter() - start


class _NullServer(Server):
    def op_noop(self):
        yield Timeout(0.0)
        return None


def _rpc_roundtrips(calls: int = 20_000):
    """``calls`` sequential null RPCs across two Butterfly nodes."""
    sim = Simulator()
    machine = Machine(sim, 2)
    server = _NullServer(machine.node(0), "null")
    client = Client(machine.node(1))

    def caller():
        for _ in range(calls):
            yield from client.call(server.port, "noop")

    start = time.perf_counter()
    sim.run_process(caller())
    elapsed = time.perf_counter() - start
    assert server.requests_served == calls
    return calls, elapsed


def _naive_stream(blocks: int):
    """Sequential naive-view writes, then reads, of a ``blocks``-block
    file on the paper's system at p = 8: every layer runs once per
    block.  Returns ``(events, host seconds)`` of each half."""
    system = paper_system(8)
    client = system.naive_client()

    def write():
        for index in range(blocks):
            yield from client.seq_write("stream", bytes([index % 251]) * 960)

    def read():
        for _ in range(blocks):
            yield from client.seq_read("stream")

    def timed(body):
        before = system.sim.events_executed
        start = time.perf_counter()
        system.run(body())
        elapsed = time.perf_counter() - start
        return system.sim.events_executed - before, elapsed

    system.run(client.create("stream"))
    written = timed(write)
    system.run(client.open("stream"))
    return written, timed(read)


def _naive_write_stream(blocks: int = 4_000):
    """The write half of :func:`_naive_stream`: an EFS append per block."""
    return _naive_stream(blocks)[0]


def _naive_read_stream(blocks: int = 4_000):
    """The read half of :func:`_naive_stream`: a hinted EFS read per block."""
    return _naive_stream(blocks)[1]


def _sort_p32(records: int = 1_024):
    """A small Table 4 sort on the widest fabric, p = 32: local sorts,
    then log2(32) token merges, every worker on its LFS node.  Half its
    events are due at the instant already running and the heap holds
    ~30 entries, the shape the same-instant ready queue is for.
    Returns ``(events, host seconds)`` of the sort."""
    system = paper_system(32, seed=7)
    keys = uniform_keys(records, seed=7)
    build_file(system, "unsorted", record_chunks(keys, seed=7))
    tool = SortTool(system.client_node, system.bridge.port, system.config)
    before = system.sim.events_executed
    start = time.perf_counter()
    system.run(tool.run("unsorted", "sorted"))
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
    rate = benchmark(lambda: _rate(*_ping_pong(5_000)))
    assert rate >= MAILBOX_MSGS_PER_SECOND_FLOOR, (
        f"mailbox ping-pong at {rate:,.0f} msgs/s, "
        f"floor is {MAILBOX_MSGS_PER_SECOND_FLOOR:,}"
    )


def test_kernel_rpc_roundtrips(benchmark):
    rate = benchmark(lambda: _rate(*_rpc_roundtrips(2_000)))
    assert rate >= RPC_ROUNDTRIPS_PER_SECOND_FLOOR, (
        f"RPC at {rate:,.0f} round trips/s, "
        f"floor is {RPC_ROUNDTRIPS_PER_SECOND_FLOOR:,}"
    )


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


def test_full_stack_write_events_per_second_floor(benchmark):
    rate = benchmark(lambda: _rate(*_naive_write_stream(1_000)))
    assert rate >= FULL_STACK_WRITE_EVENTS_PER_SECOND_FLOOR, (
        f"naive write stream at {rate:,.0f} ev/s, "
        f"floor is {FULL_STACK_WRITE_EVENTS_PER_SECOND_FLOOR:,}"
    )


def test_wide_fabric_sort_events_per_second_floor(benchmark):
    rate = benchmark(lambda: _rate(*_sort_p32(256)))
    assert rate >= SORT_P32_EVENTS_PER_SECOND_FLOOR, (
        f"p = 32 sort at {rate:,.0f} ev/s, "
        f"floor is {SORT_P32_EVENTS_PER_SECOND_FLOOR:,}"
    )


def _check_floor(label: str, storm, floor: int, unit: str) -> None:
    best = 0.0
    for _attempt in range(3):  # best-of-3 absorbs host noise
        executed, elapsed = storm()
        best = max(best, _rate(executed, elapsed))
    print(f"{label}: {best:,.0f} {unit} ({executed:,} counted, best of 3)")
    assert best >= floor, f"{label} at {best:,.0f} {unit}, floor is {floor:,}"


def main(argv) -> int:
    quick = "--quick" in argv
    _check_floor("kernel fast path",
                 lambda: _timeout_storm(20_000 if quick else 100_000),
                 EVENTS_PER_SECOND_FLOOR, "events/s")
    _check_floor("mailbox ping-pong",
                 lambda: _ping_pong(10_000 if quick else 50_000),
                 MAILBOX_MSGS_PER_SECOND_FLOOR, "msgs/s")
    _check_floor("rpc round trips",
                 lambda: _rpc_roundtrips(4_000 if quick else 20_000),
                 RPC_ROUNDTRIPS_PER_SECOND_FLOOR, "round trips/s")
    _check_floor("naive write stream",
                 lambda: _naive_write_stream(1_000 if quick else 4_000),
                 FULL_STACK_WRITE_EVENTS_PER_SECOND_FLOOR, "events/s")
    _check_floor("naive read stream",
                 lambda: _naive_read_stream(1_000 if quick else 4_000),
                 FULL_STACK_EVENTS_PER_SECOND_FLOOR, "events/s")
    _check_floor("p = 32 sort",
                 lambda: _sort_p32(256 if quick else 1_024),
                 SORT_P32_EVENTS_PER_SECOND_FLOOR, "events/s")
    print("kernel, mailbox, rpc, both full-stack and the p = 32 sort "
          "floors: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
