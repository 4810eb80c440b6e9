"""S25 storage kernel: the driver registry and every registered backend.

Three layers of coverage:

* spec handling — normalization, rejection of malformed specs, and the
  ``storage_specs`` fabric expansion;
* the cross-driver contract — the same read/write/fail/counter/span
  semantics asserted against every registered kind via the registry,
  and against the storage array (a latency model on the ``ram`` driver);
* backend-specific behavior — host-fs persistence across restarts and
  external-modification detection; object-store latency shape and
  bounded in-flight concurrency.
"""

import os

import pytest

from repro.elastic import HeatMap
from repro.errors import (
    BadBlockAddressError,
    DeviceFailedError,
    ProcessError,
)
from repro.obs import Observability
from repro.sim import Simulator
from repro.storage import (
    DEFAULT_ACCESS_TIME,
    BlockStoreABC,
    HostFSDisk,
    ObjectStoreDisk,
    SimulatedDisk,
    StorageArray,
    DRIVER_KINDS,
    make_driver,
    normalize_driver_spec,
    storage_specs,
)
from repro.storage.objectstore import (
    BANDWIDTH,
    FIRST_BYTE,
    MAX_INFLIGHT,
    transfer_time,
)

ALL_KINDS = ("ram", "hostfs", "object", "array")


def spec_for(kind, tmp_path):
    """A usable spec for each kind (hostfs needs a root; the array is
    not a registered kind, so it arrives as a factory)."""
    if kind == "hostfs":
        return {"kind": "hostfs", "root": tmp_path}
    if kind == "array":
        return lambda sim, name, capacity_blocks: StorageArray(
            sim, 4, capacity_blocks, name=name)
    return kind


@pytest.fixture(params=ALL_KINDS)
def driver(request, tmp_path):
    """(sim, store) for every driver kind."""
    sim = Simulator(seed=3, obs=Observability())
    store = make_driver(
        spec_for(request.param, tmp_path), sim, name="dut",
        capacity_blocks=64,
    )
    return sim, store


def run_ops(sim, gen):
    return sim.run_process(gen)


# ---------------------------------------------------------------------------
# Spec normalization and rejection
# ---------------------------------------------------------------------------


def test_none_normalizes_to_ram():
    assert normalize_driver_spec(None) == {"kind": "ram"}


def test_string_normalizes_to_kind_dict():
    assert normalize_driver_spec("object") == {"kind": "object"}


def test_dict_defaults_kind_to_ram():
    assert normalize_driver_spec({"access_time": 0.01}) == {
        "kind": "ram", "access_time": 0.01}


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown storage driver kind"):
        normalize_driver_spec("tape")


def test_unknown_field_rejected():
    for spec in ({"kind": "ram", "first_byte": 0.1},
                 {"kind": "ram", "jitter": 0.001},
                 {"kind": "object", "first_byte": 0.05},
                 {"kind": "object", "bandwidth": 10**6},
                 {"kind": "object", "max_inflight": 8}):
        with pytest.raises(ValueError, match="unknown field"):
            normalize_driver_spec(spec)


def test_non_spec_value_rejected():
    with pytest.raises(ValueError):
        normalize_driver_spec(42)


def test_hostfs_requires_root():
    with pytest.raises(ValueError, match="root"):
        make_driver("hostfs", Simulator(seed=1), name="d0")


def test_hostfs_rejects_unknown_fsync_policy(tmp_path):
    with pytest.raises(ValueError, match="fsync"):
        make_driver({"kind": "hostfs", "root": tmp_path, "fsync": "maybe"},
                    Simulator(seed=1), name="d0")


def test_storage_specs_single_spec_fans_out():
    assert storage_specs("object", 3) == ["object"] * 3
    assert storage_specs(None, 2) == [None, None]


def test_storage_specs_list_length_checked():
    with pytest.raises(ValueError, match="per device"):
        storage_specs(["ram", "object"], 4)


def test_factory_callable_must_return_block_store():
    def bogus(sim, name, capacity_blocks):
        return "not a driver"

    with pytest.raises(ValueError, match="BlockStoreABC"):
        make_driver(bogus, Simulator(seed=1), name="d0")


# ---------------------------------------------------------------------------
# The cross-driver contract
# ---------------------------------------------------------------------------


def test_roundtrip_and_zero_fill(driver):
    sim, store = driver

    def body():
        yield from store.write(5, b"hello")
        written = yield from store.read(5)
        empty = yield from store.read(6)
        return written, empty

    written, empty = run_ops(sim, body())
    assert written.startswith(b"hello")
    assert empty == b"\x00" * store.params.block_size
    assert store.reads == 2 and store.writes == 1


def test_blocks_mapping_supports_corruption_injection(driver):
    sim, store = driver

    def write():
        yield from store.write(3, b"clean")

    run_ops(sim, write())
    store.blocks[3] = b"JUNK"

    def read():
        return (yield from store.read(3))

    assert run_ops(sim, read()).startswith(b"JUNK")
    # ... and a dropped block (a lost write) reads back as never written.
    assert len(store.blocks) == 1
    del store.blocks[3]
    assert len(store.blocks) == 0 and 3 not in store.blocks
    assert run_ops(sim, read()) == b"\x00" * store.params.block_size
    with pytest.raises(KeyError):
        del store.blocks[3]


def test_address_validation(driver):
    sim, store = driver

    def oob():
        yield from store.read(store.params.capacity_blocks)

    with pytest.raises(ProcessError) as info:
        run_ops(sim, oob())
    assert isinstance(info.value.__cause__, BadBlockAddressError)

    def oversize():
        yield from store.write(0, b"x" * (store.params.block_size + 1))

    with pytest.raises(ProcessError) as info:
        run_ops(sim, oversize())
    assert isinstance(info.value.__cause__, BadBlockAddressError)


def test_fail_and_repair(driver):
    sim, store = driver

    def before():
        yield from store.write(2, b"kept")

    run_ops(sim, before())
    store.fail()

    def doomed():
        yield from store.read(0)

    with pytest.raises(ProcessError) as info:
        run_ops(sim, doomed())
    assert isinstance(info.value.__cause__, DeviceFailedError)
    store.repair()

    def healthy():
        yield from store.write(1, b"back")
        return (yield from store.read(1)), (yield from store.read(2))

    back, kept = run_ops(sim, healthy())
    assert back.startswith(b"back")
    assert kept.startswith(b"kept")  # a repair is a reconnect


def test_wait_service_counters_stamped(driver):
    """The S19 contract: every completed op contributes one wait and one
    service observation, and busy time accumulates service time."""
    sim, store = driver

    def body():
        for block in range(4):
            yield from store.write(block, bytes([block]))
        for block in range(4):
            yield from store.read(block)

    run_ops(sim, body())
    assert store.wait_times.count == 8
    assert store.service_times.count == 8
    assert store.service_times.mean > 0.0
    assert store.busy_time == pytest.approx(store.service_times.total)
    assert store.total_operations == 8
    # ... and each op's span ends with the same stamps.
    spans = [span for span in sim.obs.spans if span.category == "disk"]
    assert [span.name for span in spans] == ["dut.write"] * 4 + ["dut.read"] * 4
    assert [span.args["block"] for span in spans] == list(range(4)) * 2
    assert sum(s.args["wait"] for s in spans) == pytest.approx(
        store.wait_times.total)
    assert sum(s.args["service"] for s in spans) == pytest.approx(
        store.service_times.total)


def test_heat_attribution_hook(driver):
    """Installing a HeatMap attributes each op's busy time to the slot."""
    sim, store = driver
    heat = HeatMap(3, window=100.0)
    store.heat = heat
    store.heat_slot = 2

    def body():
        yield from store.write(0, b"x")
        yield from store.read(0)

    run_ops(sim, body())
    rates = heat.partition_rates(sim.now)
    assert rates[2] > 0.0
    assert rates[0] == rates[1] == 0.0
    assert rates[2] * heat.window == pytest.approx(store.busy_time)


# ---------------------------------------------------------------------------
# Host-fs specifics
# ---------------------------------------------------------------------------


def test_hostfs_blocks_live_in_real_files(tmp_path):
    sim = Simulator(seed=3)
    store = make_driver({"kind": "hostfs", "root": tmp_path}, sim,
                        name="d0", capacity_blocks=16)

    def body():
        yield from store.write(7, b"on disk")

    sim.run_process(body())
    path = os.path.join(tmp_path, "d0", "block_00000007.bin")
    assert os.path.exists(path)
    with open(path, "rb") as handle:
        assert handle.read().startswith(b"on disk")


def test_hostfs_restart_survival(tmp_path):
    """A new simulator over the same root sees the previous run's data."""
    first = Simulator(seed=3)
    store = make_driver({"kind": "hostfs", "root": tmp_path}, first,
                        name="d0", capacity_blocks=16)

    def write():
        yield from store.write(2, b"persist me")

    first.run_process(write())

    second = Simulator(seed=99)
    revived = make_driver({"kind": "hostfs", "root": tmp_path}, second,
                          name="d0", capacity_blocks=16)
    assert 2 in revived.blocks  # adopted at construction

    def read():
        return (yield from revived.read(2))

    assert second.run_process(read()).startswith(b"persist me")


def test_hostfs_detects_external_modification(tmp_path):
    sim = Simulator(seed=3)
    store = make_driver({"kind": "hostfs", "root": tmp_path}, sim,
                        name="d0", capacity_blocks=16)

    def body():
        yield from store.write(1, b"mine")

    sim.run_process(body())
    assert store.modified_externally() == []
    path = os.path.join(tmp_path, "d0", "block_00000001.bin")
    stamp = os.stat(path).st_mtime + 5
    with open(path, "wb") as handle:
        handle.write(b"theirs")
    os.utime(path, (stamp, stamp))
    assert store.modified_externally() == [1]


def test_hostfs_fsync_always_policy(tmp_path):
    sim = Simulator(seed=3)
    store = make_driver(
        {"kind": "hostfs", "root": tmp_path, "fsync": "always"}, sim,
        name="d0", capacity_blocks=16,
    )

    def body():
        yield from store.write(0, b"durable")
        return (yield from store.read(0))

    assert sim.run_process(body()).startswith(b"durable")
    store.flush()  # fsync-everything hook: a no-op error-free pass


# ---------------------------------------------------------------------------
# Object-store specifics
# ---------------------------------------------------------------------------


def test_object_latency_is_first_byte_plus_bandwidth():
    assert transfer_time(0) == pytest.approx(FIRST_BYTE)
    assert transfer_time(BANDWIDTH) == pytest.approx(FIRST_BYTE + 1.0)


def test_object_store_single_op_cost():
    sim = Simulator(seed=3)
    store = make_driver("object", sim, name="obj", capacity_blocks=16)

    def body():
        yield from store.write(0, b"x")
        return sim.now

    elapsed = sim.run_process(body())
    expected = FIRST_BYTE + store.params.block_size / BANDWIDTH
    assert elapsed == pytest.approx(expected)


def test_object_store_bounds_inflight_ops():
    """Twice MAX_INFLIGHT concurrent ops complete in exactly two
    waves, and wave two's requests record the wait."""
    sim = Simulator(seed=3)
    store = make_driver("object", sim, name="obj", capacity_blocks=16)
    per_op = transfer_time(store.params.block_size)

    def one(block):
        yield from store.write(block, bytes([block]))

    def body():
        from repro.sim import join_all

        procs = [sim.spawn(one(b), name=f"w{b}")
                 for b in range(2 * MAX_INFLIGHT)]
        yield join_all(procs)
        return sim.now

    elapsed = sim.run_process(body())
    assert elapsed == pytest.approx(2 * per_op)
    assert store.wait_times.max == pytest.approx(per_op)
    # Overlapped service: total busy exceeds the elapsed window.
    assert store.busy_time == pytest.approx(2 * MAX_INFLIGHT * per_op)
    assert store.utilization() > 1.0


def test_object_store_concurrency_beats_serial_hostfs_contract():
    """The dispatcher drains the queue FIFO: op order is preserved in
    wait stamping (first four wait 0, last four wait one slot)."""
    sim = Simulator(seed=3)
    store = make_driver("object", sim, name="obj", capacity_blocks=16)

    waits = []

    def one(block):
        yield from store.write(block, b"z")
        waits.append((block, store.wait_times.count))

    def body():
        from repro.sim import join_all

        procs = [sim.spawn(one(b), name=f"w{b}")
                 for b in range(2 * MAX_INFLIGHT)]
        yield join_all(procs)

    sim.run_process(body())
    assert store.wait_times.count == 2 * MAX_INFLIGHT
    assert store.wait_times.min == 0.0
    assert store.wait_times.max > 0.0


# ---------------------------------------------------------------------------
# Registry-built drivers match direct construction
# ---------------------------------------------------------------------------


def test_registry_builds_expected_types(tmp_path):
    sim = Simulator(seed=3)
    assert isinstance(
        make_driver(None, sim, name="a"), SimulatedDisk)
    assert isinstance(
        make_driver({"kind": "hostfs", "root": tmp_path}, sim, name="b"),
        HostFSDisk)
    assert isinstance(
        make_driver("object", sim, name="c"), ObjectStoreDisk)


def test_ram_spec_latency_fields(tmp_path):
    sim = Simulator(seed=3)
    store = make_driver({"kind": "ram", "access_time": 0.002}, sim, name="d")
    assert store.latency.access_time == pytest.approx(0.002)
    default = make_driver(None, sim, name="e")
    assert default.latency.access_time == pytest.approx(DEFAULT_ACCESS_TIME)


def test_every_registered_kind_is_a_block_store(tmp_path):
    sim = Simulator(seed=3)
    for index, kind in enumerate(sorted(DRIVER_KINDS)):
        store = make_driver(spec_for(kind, tmp_path), sim,
                            name=f"k{index}", capacity_blocks=8)
        assert isinstance(store, BlockStoreABC)
        assert type(store).kind == kind
