"""Model-based property test for the block cache: arbitrary sequences of
reads, write-throughs, write-backs, invalidations, and flushes must never
lose data, the post-flush device image must be exact, and the decode memo
beside each cached block is only ever a decode of *that* block's bytes."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.efs import BlockCache
from repro.sim import Simulator
from repro.storage import DiskParameters, FixedLatency, SimulatedDisk

_ADDRESSES = st.integers(0, 15)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), _ADDRESSES),
        st.tuples(st.just("fetch"), _ADDRESSES),
        st.tuples(st.just("wt"), _ADDRESSES, st.integers(0, 255)),
        st.tuples(st.just("wb"), _ADDRESSES, st.integers(0, 255)),
        st.tuples(st.just("inv"), _ADDRESSES),
        st.tuples(st.just("flush")),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_ops, capacity=st.integers(1, 8), track=st.integers(1, 4))
def test_cache_agrees_with_write_history(ops, capacity, track):
    sim = Simulator(seed=151)
    disk = SimulatedDisk(
        sim, DiskParameters(name="d", capacity_blocks=64), FixedLatency(1e-5)
    )
    cache = BlockCache(disk, capacity=capacity, track_blocks=track)

    written = {}      # address -> last value written by anyone
    invalidated = set()  # dirty data deliberately dropped via invalidate

    def block(value):
        return bytes([value]) * 1024

    def decode(raw):  # a stand-in for the formats the EFS layers know
        return ("decoded", raw[0], len(raw))

    def memos_are_fresh():
        for address, entry in cache._entries.items():
            assert entry.decoded is None or entry.decoded == decode(entry.raw), (
                f"stale memo at {address}"
            )

    def driver():
        for op in ops:
            kind = op[0]
            if kind == "fetch":
                # the EFS layers' access: a plain hit or the miss
                # generator, then decode-on-first-use into the memo
                _, address = op
                entry = cache.lookup(address)
                if entry is None:
                    entry = yield from cache.fill(address)
                if entry.decoded is None:
                    entry.decoded = decode(entry.raw)
                if address not in invalidated:
                    assert entry.raw == written.get(address, b"\x00" * 1024)
            elif kind == "read":
                _, address = op
                if address in invalidated:
                    # an earlier invalidate may have legitimately dropped
                    # a dirty write; reads are unspecified for it
                    data = yield from cache.read(address)
                    continue
                data = yield from cache.read(address)
                expected = written.get(address, b"\x00" * 1024)
                assert data == expected, (
                    f"read {address}: got {data[:2]!r}, wanted {expected[:2]!r}"
                )
            elif kind == "wt":
                _, address, value = op
                yield from cache.write_through(
                    address, block(value), decode(block(value)))
                written[address] = block(value)
                invalidated.discard(address)
            elif kind == "wb":
                _, address, value = op
                # half the writers seed the memo, half leave it to readers
                seed = decode(block(value)) if value % 2 else None
                yield from cache.write_back(address, block(value), seed)
                written[address] = block(value)
                invalidated.discard(address)
            elif kind == "inv":
                _, address = op
                # invalidating a dirty block drops its latest value; track
                # that the contents are now unspecified until rewritten
                if cache.peek(address) is not None:
                    # conservative: treat any cached block as possibly dirty
                    invalidated.add(address)
                cache.invalidate(address)
            elif kind == "flush":
                yield from cache.flush()
            memos_are_fresh()
        # final flush: the device must now hold the exact last values for
        # every address never invalidated-dirty
        yield from cache.flush()

    sim.run_process(driver())
    for address, expected in written.items():
        if address in invalidated:
            continue
        actual = disk.blocks.get(address, b"\x00" * 1024)
        assert actual == expected, f"device block {address} diverged"
