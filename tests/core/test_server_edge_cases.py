"""Edge-case tests for the Bridge Server: job protocol misuse, entry
validation, hint behavior, and directory invariants."""

import pytest

from repro.core import BridgeDirectory, BridgeFileEntry, ParallelWorker
from repro.core.parallel import Deposit
from repro.errors import (
    BridgeBadRequestError,
    BridgeFileExistsError,
    BridgeFileNotFoundError,
    BridgeJobError,
)
from repro.machine import Client
from tests.core.conftest import make_system


# ---------------------------------------------------------------------------
# BridgeDirectory unit behavior
# ---------------------------------------------------------------------------


def entry(name, width=2, **kwargs):
    return BridgeFileEntry(
        name=name,
        file_id=kwargs.pop("file_id", 1),
        width=width,
        start=kwargs.pop("start", 0),
        node_indexes=kwargs.pop("node_indexes", list(range(width))),
        efs_file_numbers=kwargs.pop("efs_file_numbers", [1] * width),
        **kwargs,
    )


def test_directory_insert_lookup_remove():
    directory = BridgeDirectory()
    directory.insert(entry("a"))
    assert directory.lookup("a").name == "a"
    assert directory.exists("a")
    assert len(directory.names()) == 1
    removed = directory.remove("a")
    assert removed.name == "a"
    assert not directory.exists("a")


def test_directory_duplicate_insert():
    directory = BridgeDirectory()
    directory.insert(entry("dup"))
    with pytest.raises(BridgeFileExistsError):
        directory.insert(entry("dup"))


def test_directory_missing_lookup_and_remove():
    directory = BridgeDirectory()
    with pytest.raises(BridgeFileNotFoundError):
        directory.lookup("ghost")
    with pytest.raises(BridgeFileNotFoundError):
        directory.remove("ghost")


def test_directory_validates_entry_shape():
    directory = BridgeDirectory()
    with pytest.raises(ValueError):
        directory.insert(entry("bad-nodes", width=2, node_indexes=[0]))
    with pytest.raises(ValueError):
        directory.insert(entry("bad-files", width=2, efs_file_numbers=[1]))


def test_directory_names_sorted():
    directory = BridgeDirectory()
    for name in ("zeta", "alpha", "mid"):
        directory.insert(entry(name))
    assert directory.names() == ["alpha", "mid", "zeta"]


def test_directory_file_id_stride():
    directory = BridgeDirectory(file_id_start=3, file_id_step=4)
    assert [directory.allocate_file_id() for _ in range(3)] == [3, 7, 11]
    with pytest.raises(ValueError):
        BridgeDirectory(file_id_start=0)
    with pytest.raises(ValueError):
        BridgeDirectory(file_id_step=0)


def test_entry_locate_block_strict_and_disordered():
    strict = entry("s", width=4)
    assert strict.locate_block(5) == (1, 1)
    messy = entry("m", width=2, disordered=True, block_map=[(1, 0), (0, 0)])
    assert messy.locate_block(0) == (1, 0)
    assert messy.locate_block(1) == (0, 0)
    with pytest.raises(ValueError):
        messy.locate_block(2)


# ---------------------------------------------------------------------------
# Job protocol misuse
# ---------------------------------------------------------------------------


def test_duplicate_deposit_rejected():
    system = make_system(2)
    workers = [ParallelWorker(system.client_node, i) for i in range(2)]

    def main():
        client = system.naive_client()
        yield from client.create("dd")
        from repro.core import JobController

        controller = JobController(system.client_node, system.bridge.port)
        job = yield from controller.open("dd", [w.port for w in workers])
        workers[0].deposit(job, b"one")
        workers[0].deposit(job, b"again")  # same worker twice
        try:
            yield from controller.write()
        except BridgeJobError as exc:
            return "duplicate" in str(exc)

    assert system.run(main()) is True


def test_foreign_message_on_job_port_rejected():
    system = make_system(2)
    worker = ParallelWorker(system.client_node, 0)

    def main():
        client = system.naive_client()
        yield from client.create("noise")
        from repro.core import JobController

        controller = JobController(system.client_node, system.bridge.port)
        job = yield from controller.open("noise", [worker.port])
        system.client_node.send(job.job_port, "not a deposit")
        try:
            yield from controller.write()
        except BridgeJobError:
            return "caught"

    assert system.run(main()) == "caught"


def test_deposit_for_wrong_job_rejected():
    system = make_system(2)
    worker = ParallelWorker(system.client_node, 0)

    def main():
        client = system.naive_client()
        yield from client.create("wrong-job")
        from repro.core import JobController

        controller = JobController(system.client_node, system.bridge.port)
        job = yield from controller.open("wrong-job", [worker.port])
        system.client_node.send(
            job.job_port, Deposit(job_id=999, worker_index=0, data=b"x")
        )
        try:
            yield from controller.write()
        except BridgeJobError:
            return "caught"

    assert system.run(main()) == "caught"


def test_parallel_write_on_disordered_rejected():
    system = make_system(2)
    worker = ParallelWorker(system.client_node, 0)

    def main():
        client = system.naive_client()
        yield from client.create("messy", disordered=True)
        from repro.core import JobController

        controller = JobController(system.client_node, system.bridge.port)
        job = yield from controller.open("messy", [worker.port])
        worker.deposit(job, b"x")
        try:
            yield from controller.write()
        except BridgeJobError as exc:
            return "disordered" in str(exc)

    assert system.run(main()) is True


# ---------------------------------------------------------------------------
# Server construction and misc ops
# ---------------------------------------------------------------------------


def test_server_requires_lfs():
    from repro.config import DEFAULT_CONFIG
    from repro.core import BridgeServer
    from repro.machine import Machine
    from repro.sim import Simulator

    sim = Simulator()
    machine = Machine(sim, 1, config=DEFAULT_CONFIG)
    with pytest.raises(ValueError):
        BridgeServer(machine.node(0), [], DEFAULT_CONFIG)


def test_seq_read_before_any_write_is_eof():
    system = make_system(2)
    client = system.naive_client()

    def main():
        yield from client.create("empty")
        return (yield from client.seq_read("empty"))

    assert system.run(main()) == (None, None)


def test_seq_read_unknown_file():
    system = make_system(2)
    client = system.naive_client()

    def main():
        try:
            yield from client.seq_read("ghost")
        except BridgeFileNotFoundError:
            return "caught"

    assert system.run(main()) == "caught"


def test_open_rejects_inconsistent_tool_writes():
    """A tool that appends out of round-robin order leaves sizes that are
    not a legal prefix; the next open must flag it."""
    system = make_system(2)
    client = system.naive_client()

    def main():
        file_id = yield from client.create("skewed")
        efs = system.efs_client(1)  # append to slot 1 only: block 0 missing
        yield from efs.append(file_id, b"orphan")
        try:
            yield from client.open("skewed")
        except (ValueError, BridgeBadRequestError):
            return "caught"

    assert system.run(main()) == "caught"


def test_open_and_mopen_refuse_a_disordered_file_written_around_the_server():
    """The refusal comes after the info fan-out: raised for the
    singleton, that name's outcome (and only that name's) in a batch."""
    system = make_system(2)
    client = system.naive_client()

    def main():
        file_id = yield from client.create("scattered", disordered=True)
        yield from client.create("fine")
        yield from client.seq_write("scattered", b"mapped")
        yield from system.efs_client(0).append(file_id, b"unmapped")
        outcomes = yield from client.mopen(["scattered", "fine"])
        try:
            yield from client.open("scattered")
        except BridgeBadRequestError as exc:
            return outcomes, str(exc)

    outcomes, message = system.run(main())
    assert isinstance(outcomes[0].error, BridgeBadRequestError)
    assert outcomes[1].ok
    assert "map has 1 entries but the LFS hold 2 blocks" in message


def test_hints_are_dropped_on_delete():
    system = make_system(2)
    client = system.naive_client()

    def main():
        yield from client.create("hinted")
        yield from client.seq_write("hinted", b"a")
        yield from client.open("hinted")
        yield from client.seq_read("hinted")
        yield from client.delete("hinted")
        return sorted(system.bridge._hints)

    hints = system.run(main())
    assert all(name != "hinted" for name, _slot in hints)


def test_create_width_zero_rejected():
    system = make_system(2)
    client = system.naive_client()

    def main():
        try:
            yield from client.create("none", node_slots=[])
        except BridgeBadRequestError:
            return "caught"

    assert system.run(main()) == "caught"


def test_create_width_must_match_node_slots():
    system = make_system(2)
    client = system.naive_client()

    def main():
        try:
            yield from client.create("odd", width=2, node_slots=[0])
        except BridgeBadRequestError as exc:
            return str(exc)

    assert system.run(main()) == "width 2 != len(node_slots) 1"
