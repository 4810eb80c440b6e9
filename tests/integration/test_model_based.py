"""Model-based property tests: random operation sequences executed both
against the simulated file systems and a trivial in-memory reference
model must agree at every step."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DATA_BYTES_PER_BLOCK, DEFAULT_CONFIG
from repro.efs import EFSClient, EFSServer
from repro.errors import (
    EFSBlockNotFoundError,
    EFSFileExistsError,
    EFSFileNotFoundError,
)
from repro.machine import Machine
from repro.sim import Simulator
from repro.storage import DiskParameters, FixedLatency, SimulatedDisk

from tests.efs.conftest import assert_memos_fresh


# ---------------------------------------------------------------------------
# EFS vs dict-of-lists model
# ---------------------------------------------------------------------------

_efs_ops = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.integers(0, 3)),
        st.tuples(st.just("delete"), st.integers(0, 3)),
        st.tuples(st.just("append"), st.integers(0, 3), st.integers(0, 255)),
        st.tuples(
            st.just("write"),
            st.integers(0, 3),
            st.integers(0, 6),
            st.integers(0, 255),
        ),
        st.tuples(st.just("read"), st.integers(0, 3), st.integers(0, 6)),
        st.tuples(st.just("info"), st.integers(0, 3)),
    ),
    max_size=40,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_efs_ops)
def test_efs_agrees_with_reference_model(ops):
    sim = Simulator(seed=101)
    machine = Machine(sim, 1, config=DEFAULT_CONFIG)
    node = machine.node(0)
    disk = SimulatedDisk(
        sim, DiskParameters(name="d", capacity_blocks=2048), FixedLatency(1e-4)
    )
    server = EFSServer(node, disk, DEFAULT_CONFIG)
    client = EFSClient(node, server.port)

    model = {}  # file_number -> list of data payloads

    def payload(value):
        return bytes([value]) * 16

    def driver():
        for op in ops:
            kind = op[0]
            if kind == "create":
                _, number = op
                if number in model:
                    with pytest.raises(EFSFileExistsError):
                        yield from client.create(number)
                else:
                    yield from client.create(number)
                    model[number] = []
            elif kind == "delete":
                _, number = op
                if number not in model:
                    with pytest.raises(EFSFileNotFoundError):
                        yield from client.delete(number)
                else:
                    freed = yield from client.delete(number)
                    assert freed == len(model[number])
                    del model[number]
            elif kind == "append":
                _, number, value = op
                if number not in model:
                    with pytest.raises(EFSFileNotFoundError):
                        yield from client.append(number, payload(value))
                else:
                    result = yield from client.append(number, payload(value))
                    assert result.block_number == len(model[number])
                    model[number].append(payload(value))
            elif kind == "write":
                _, number, block, value = op
                if number not in model:
                    with pytest.raises(EFSFileNotFoundError):
                        yield from client.write(number, block, payload(value))
                elif block > len(model[number]):
                    with pytest.raises(EFSBlockNotFoundError):
                        yield from client.write(number, block, payload(value))
                else:
                    yield from client.write(number, block, payload(value))
                    if block == len(model[number]):
                        model[number].append(payload(value))
                    else:
                        model[number][block] = payload(value)
            elif kind == "read":
                _, number, block = op
                if number not in model:
                    with pytest.raises(EFSFileNotFoundError):
                        yield from client.read(number, block)
                elif block >= len(model[number]):
                    with pytest.raises(EFSBlockNotFoundError):
                        yield from client.read(number, block)
                else:
                    result = yield from client.read(number, block)
                    assert result.data[:16] == model[number][block]
            elif kind == "info":
                _, number = op
                if number not in model:
                    with pytest.raises(EFSFileNotFoundError):
                        yield from client.info(number)
                else:
                    info = yield from client.info(number)
                    assert info.size_blocks == len(model[number])
            # decode-once: no memo ever outlives or disagrees with its bytes
            assert_memos_fresh(server)
        # final sweep: every file readable end to end
        for number, blocks in model.items():
            chunks = yield from client.read_file(number)
            assert len(chunks) == len(blocks)
            for expected, actual in zip(blocks, chunks):
                assert actual[:16] == expected

    sim.run_process(driver())
    # structural oracle: the on-disk image must satisfy every invariant
    from repro.efs.fsck import check_efs

    report = check_efs(server)
    assert report.clean, report.errors


# ---------------------------------------------------------------------------
# Bridge naive view vs list model
# ---------------------------------------------------------------------------

_bridge_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 255)),
        st.tuples(st.just("sread")),
        st.tuples(st.just("rread"), st.integers(0, 30)),
        st.tuples(st.just("rwrite"), st.integers(0, 30), st.integers(0, 255)),
        st.tuples(st.just("reopen")),
        st.tuples(st.just("delete")),
        st.tuples(st.just("recreate")),
    ),
    max_size=30,
)

#: The knob lattice's first two points (ROADMAP item 1): every knob off,
#: and the S18 Bridge cache with read-ahead.  Only timing may differ.
_BRIDGE_KNOBS = [
    {},
    {"prefetch_window": 2, "bridge_cache_blocks": 16},
]


@pytest.mark.parametrize("knobs", _BRIDGE_KNOBS, ids=["paper", "cached"])
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_bridge_ops, width=st.sampled_from([1, 2, 4]), start=st.integers(0, 3))
def test_bridge_naive_view_agrees_with_reference_model(knobs, ops, width, start):
    import dataclasses

    from repro.efs.fsck import check_system
    from repro.errors import (
        BridgeBadRequestError,
        BridgeFileExistsError,
        BridgeFileNotFoundError,
    )
    from repro.harness import BridgeSystem, SystemSpec

    start %= width
    spec = SystemSpec.from_keywords(
        width, seed=103, disk_latency=FixedLatency(1e-4)
    )
    system = BridgeSystem(dataclasses.replace(
        spec, config=spec.config.with_changes(**knobs)
    ))
    client = system.naive_client()
    model = []  # the live file's blocks; None while "f" is deleted
    cursor = 0

    def payload(value):
        return bytes([value]) * 8

    def request(op):
        """The client call an op stands for (run by ``yield from``)."""
        kind = op[0]
        if kind == "write":
            return client.seq_write("f", payload(op[1]))
        if kind == "sread":
            return client.seq_read("f")
        if kind == "rread":
            return client.random_read("f", op[1])
        if kind == "rwrite":
            return client.random_write("f", op[1], payload(op[2]))
        if kind == "reopen":
            return client.open("f")
        if kind == "delete":
            return client.delete("f")
        return client.create("f", start=start)

    def driver():
        nonlocal model, cursor
        yield from client.create("f", start=start)
        for op in ops:
            kind, call = op[0], request(op)
            if kind == "recreate":
                if model is None:
                    yield from call
                    model, cursor = [], 0
                else:
                    with pytest.raises(BridgeFileExistsError):
                        yield from call
            elif model is None:
                with pytest.raises(BridgeFileNotFoundError):
                    yield from call
            elif kind == "delete":
                assert (yield from call) == len(model)  # blocks freed
                model = None
            elif kind == "write":
                assert (yield from call) == len(model)
                model.append(payload(op[1]))
            elif kind == "sread":
                number, data = yield from call
                if cursor >= len(model):
                    assert (number, data) == (None, None)
                else:
                    assert (number, data[:8]) == (cursor, model[cursor])
                    cursor += 1
            elif kind == "rread":
                if op[1] >= len(model):
                    with pytest.raises(BridgeBadRequestError):
                        yield from call
                else:
                    assert (yield from call)[:8] == model[op[1]]
            elif kind == "rwrite":
                block = op[1]
                if block > len(model):
                    with pytest.raises(BridgeBadRequestError):
                        yield from call
                else:
                    yield from call
                    # in place, or an append when block == len(model)
                    model[block:block + 1] = [payload(op[2])]
            elif kind == "reopen":
                assert (yield from call).total_blocks == len(model)
                cursor = 0
        if model is not None:
            chunks = yield from client.read_all("f")
            assert len(chunks) == len(model)
            for expected, actual in zip(model, chunks):
                assert actual[:8] == expected

    system.run(driver())
    assert all(report.clean for report in check_system(system))
