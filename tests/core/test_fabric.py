"""S20 fabric tests: the partitioned Bridge as a first-class routing
layer for every view.

Covers the partition-routing invariants (stability across LFS widths,
cross-partition ``Get Info`` aggregation, cache coherence across
re-creates at different partition counts), the API-parity contract
between :class:`BridgeClient` and :class:`PartitionedClient`, all three
views plus list I/O and parity redundancy at ``bridge_server_count=4``,
and the exported-trace shape (per-partition server rows reached by one
cross-partition fan-out).
"""

import inspect
import json

import pytest

from repro.config import DATA_BYTES_PER_BLOCK
from repro.core import BridgeClient, JobController, ParallelWorker
from repro.core.partitioned import PartitionedClient
from repro.elastic.ring import ModuloRing
from repro.efs.fsck import check_system
from repro.harness.builders import BridgeSystem
from repro.sim import join_all
from repro.storage import FixedLatency
from repro.tools.copy import CopyTool
from repro.workloads import pattern_chunks


def make_fabric(p=4, servers=4, seed=23, **kwargs):
    return BridgeSystem(
        p, seed=seed, disk_latency=FixedLatency(0.0005),
        bridge_server_count=servers, **kwargs,
    )


def data_for(index):
    return f"fb-{index:04d}|".encode()


# ---------------------------------------------------------------------------
# Satellite: API parity between BridgeClient and PartitionedClient
# ---------------------------------------------------------------------------


def api_surface(cls):
    """Public methods -> (name, kind, default) parameter shapes."""
    surface = {}
    for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
        if name.startswith("_") or name == "__init__":
            continue
        surface[name] = [
            (p.name, p.kind, p.default)
            for p in inspect.signature(member).parameters.values()
        ]
    return surface


def test_partitioned_client_covers_full_bridge_client_surface():
    """Every public BridgeClient operation exists on PartitionedClient
    with an identical parameter list — the regression that motivated
    this test was list I/O and block maps missing from the routed
    client, which silently pushed fabric users back to partition 0."""
    want = api_surface(BridgeClient)
    have = api_surface(PartitionedClient)
    missing = sorted(set(want) - set(have))
    assert not missing, f"PartitionedClient is missing {missing}"
    for name, parameters in want.items():
        assert have[name] == parameters, (
            f"signature mismatch on {name}: "
            f"BridgeClient{parameters} vs PartitionedClient{have[name]}"
        )


# ---------------------------------------------------------------------------
# Partition-routing invariants
# ---------------------------------------------------------------------------


def test_partition_of_depends_only_on_name_and_count():
    names = [f"n{i}" for i in range(16)]
    ring = ModuloRing(3)
    owners = {name: ring.partition_of(name) for name in names}
    # Same partition count, different LFS widths: ownership must not move
    # (routing keys off the namespace, never the storage geometry).
    for p in (2, 8):
        system = make_fabric(p=p, servers=3, seed=7)
        client = system.partitioned_client()

        def body():
            for name in names:
                yield from client.create(name)

        system.run(body())
        for name in names:
            for index, bridge in enumerate(system.bridges):
                assert bridge.directory.exists(name) == (index == owners[name])


def test_cross_partition_get_info_aggregates_all_partitions():
    system = make_fabric()
    client = system.partitioned_client()

    def body():
        return (yield from client.get_info())

    info = system.run(body())
    assert info.width == 4
    assert len(info.server_ports) == 4
    assert info.server_ports == [b.port for b in system.bridges]
    assert info.server_port is system.bridges[0].port
    # Every partition reports the same LFS node layout.
    assert [h.node_index for h in info.lfs] == [n.index for n in system.lfs_nodes]


def test_tool_get_info_refuses_partitions_that_disagree_on_the_lfs_set():
    """A tool bootstraps through the same merged ``Get Info`` as every
    other fabric client: a mis-wired partition fails loudly."""
    from repro.errors import BridgeBadRequestError, ProcessError
    from repro.tools import Tool

    system = make_fabric(servers=2)
    system.bridges[1].lfs.reverse()
    tool = Tool(system.client_node, system.server_target(), system.config)
    with pytest.raises(ProcessError) as raised:
        system.run(tool.get_info())
    assert isinstance(raised.value.__cause__, BridgeBadRequestError)
    assert "disagrees on the LFS set" in str(raised.value.__cause__)


@pytest.mark.parametrize("servers", [1, 2, 4])
def test_recreate_is_cache_coherent_at_any_partition_count(servers):
    """Delete + re-create of the same name must never serve the old
    generation from the owning partition's block cache."""
    system = make_fabric(
        servers=servers, seed=9, bridge_cache_blocks=64, prefetch_window=2,
    )
    client = system.naive_client()

    def body():
        yield from client.create("x")
        yield from client.write_all("x", [b"old-%d|" % i for i in range(6)])
        first = yield from client.read_all("x")
        yield from client.delete("x")
        yield from client.create("x")
        yield from client.write_all("x", [b"new-%d|" % i for i in range(6)])
        second = yield from client.read_all("x")
        return first, second

    first, second = system.run(body())
    assert [c[:6] for c in first] == [b"old-%d|" % i for i in range(6)]
    assert [c[:6] for c in second] == [b"new-%d|" % i for i in range(6)]


# ---------------------------------------------------------------------------
# Every view at bridge_server_count = 4
# ---------------------------------------------------------------------------


def test_naive_and_list_io_on_fabric():
    system = make_fabric()
    client = system.naive_client()
    assert isinstance(client, PartitionedClient)

    def body():
        yield from client.create("lf")
        for index in range(8):
            yield from client.seq_write("lf", data_for(index))
        picked = yield from client.list_read("lf", [1, 4, 6])
        appended = yield from client.list_write(
            "lf", [(8, data_for(8)), (9, data_for(9))]
        )
        everything = yield from client.read_all("lf")
        return picked, appended, everything

    picked, appended, everything = system.run(body())
    assert [c[:8] for c in picked] == [data_for(i) for i in (1, 4, 6)]
    assert appended == 10
    assert [c[:8] for c in everything] == [data_for(i) for i in range(10)]


def test_parallel_view_on_fabric():
    system = make_fabric()
    client = system.naive_client()
    received = {i: [] for i in range(4)}

    def writer():
        yield from client.create("pjob")
        for index in range(8):
            yield from client.seq_write("pjob", data_for(index))

    system.run(writer())

    workers = [
        ParallelWorker(system.client_node, i, name="pjob-w") for i in range(4)
    ]

    def worker_body(worker):
        while True:
            delivery = yield from worker.receive()
            if delivery.eof:
                return
            received[worker.index].append(delivery.block_number)

    worker_processes = [
        system.client_node.spawn(worker_body(w), name=f"worker{w.index}")
        for w in workers
    ]

    def main():
        controller = JobController(system.client_node, system.server_target())
        job = yield from controller.open("pjob", [w.port for w in workers])
        counts = []
        for _ in range(3):
            counts.append((yield from controller.read()))
        yield from controller.close()
        yield join_all(worker_processes)
        return job, counts

    job, counts = system.run(main())
    assert job.width == 4
    assert counts == [4, 4, 0]
    for index in range(4):
        assert received[index] == [index, index + 4]
    # The job ran on the partition that owns the name, not partition 0.
    owner = system.fabric.server_for("pjob")
    assert owner.directory.exists("pjob")


def test_copy_tool_on_fabric():
    system = make_fabric()
    client = system.naive_client()

    def build():
        yield from client.create("src")
        for index in range(8):
            yield from client.seq_write("src", data_for(index))

    system.run(build())
    # "src" and "dst" hash to different partitions at count 4, so the
    # tool's create/open/delete calls must route per name.
    assert system.fabric.partition_of("src") != system.fabric.partition_of("dst")
    tool = CopyTool(system.client_node, system.server_target(), system.config)

    def run_tool():
        return (yield from tool.run("src", "dst"))

    result = system.run(run_tool())
    assert result.total_blocks == 8

    def read_back():
        return (yield from client.read_all("dst"))

    chunks = system.run(read_back())
    assert [c[:8] for c in chunks] == [data_for(i) for i in range(8)]


def test_parity_redundancy_on_fabric():
    system = BridgeSystem(
        5, seed=17, disk_latency=FixedLatency(0.0005),
        bridge_server_count=4, redundancy="parity",
    )
    chunks = [
        chunk.ljust(DATA_BYTES_PER_BLOCK, b"\x00")
        for chunk in pattern_chunks(8, stamp=b"PAR")
    ]
    pfile = system.redundant_file("pf")

    def body():
        yield from pfile.create()
        yield from pfile.write_all(chunks)
        return (yield from pfile.read_all())

    data, _stats = system.run(body())
    assert data == chunks
    assert all(report.clean for report in check_system(system))


# ---------------------------------------------------------------------------
# Trace shape at count 4
# ---------------------------------------------------------------------------


def test_fabric_trace_has_partition_rows_and_one_fanout_tree(tmp_path):
    trace_path = tmp_path / "fabric_trace.json"
    system = make_fabric(obs=True, trace_export=str(trace_path))
    client = system.partitioned_client()

    def body():
        for index in range(8):
            name = f"t{index}"
            yield from client.create(name)
            yield from client.seq_write(name, data_for(index))
        return (yield from client.get_info())

    info = system.run(body())
    assert len(info.server_ports) == 4

    obs = system.obs
    server_nodes = {node.index for node in system.server_nodes}
    # Per-partition server rows: every partition handled some request.
    handled = {
        span.node for span in obs.spans if span.category == "server"
        and span.name.startswith("bridge")
    }
    assert server_nodes <= handled
    # Cross-partition fan-out: the four get_info handler spans (one per
    # partition node) hang off one client span via the four gather legs.
    infos = [
        span for span in obs.spans
        if span.category == "server" and span.name.endswith(".get_info")
    ]
    assert {span.node for span in infos} == server_nodes
    legs = [span for span in obs.spans if span.name == "gather.get_info"]
    assert len(legs) == 4
    assert len({span.parent_id for span in legs}) == 1
    by_id = {span.id: span for span in obs.spans}

    def root_of(span):
        while span.parent_id is not None:
            span = by_id[span.parent_id]
        return span

    roots = {root_of(span).id for span in infos}
    assert len(roots) == 1
    assert by_id[next(iter(roots))].name == "pclient.get_info"
    # The exported document renders one process row per partition node.
    document = json.loads(trace_path.read_text())
    exported = {
        event["pid"] for event in document["traceEvents"]
        if event.get("ph") == "X" and event.get("cat") == "server"
        and event["name"].startswith("bridge")
    }
    assert server_nodes <= exported
