"""S23 batched metadata ops: semantics, windows, telemetry.

The batched surface promises per-name typed outcomes in input order
(duplicates included), one bad name never failing its batch, exact
windowed RPC counts matching :func:`repro.analysis.batched_rpc_count`,
and cache coherence identical to the singleton ops (an ``mdelete``
bumps generations exactly like ``delete``).
"""

import pytest

from repro.analysis import batched_rpc_count
from repro.config import DEFAULT_CONFIG
from repro.core import NameOutcome
from repro.errors import (
    BridgeFileExistsError,
    BridgeFileNotFoundError,
    ProcessError,
)
from repro.harness.builders import BridgeSystem
from repro.storage import FixedLatency

from .conftest import make_system


def run_batch(system, client, method, names, **kwargs):
    def body():
        return (yield from getattr(client, method)(names, **kwargs))

    return system.run(body())


def create_all(system, client, names, **kwargs):
    outcomes = run_batch(system, client, "mcreate", names, **kwargs)
    for outcome in outcomes:
        outcome.unwrap()
    return outcomes


# ---------------------------------------------------------------------------
# Outcome semantics
# ---------------------------------------------------------------------------


def test_outcomes_in_input_order_with_duplicates():
    system = make_system(4, bridge_server_count=4)
    client = system.partitioned_client()
    names = [f"ord-{i}" for i in range(8)]
    create_all(system, client, names, width=1)

    # Shuffled input plus a duplicate occurrence: every outcome lands at
    # its own input index, keyed by position rather than by name.
    query = [names[5], names[2], names[5], names[7], names[0]]
    outcomes = run_batch(system, client, "mopen", query)
    assert [outcome.name for outcome in outcomes] == query
    for outcome in outcomes:
        assert outcome.ok
        assert outcome.value.name == outcome.name


def test_one_bad_name_never_fails_the_batch():
    system = make_system(4, bridge_server_count=2)
    client = system.partitioned_client()
    names = [f"mix-{i}" for i in range(6)]
    create_all(system, client, names, width=1)

    query = names[:3] + ["mix-missing"] + names[3:]
    for method in ("mopen", "mstat", "mdelete"):
        outcomes = run_batch(system, client, method, query)
        by_name = {outcome.name: outcome for outcome in outcomes}
        assert isinstance(by_name["mix-missing"].error,
                          BridgeFileNotFoundError)
        with pytest.raises(BridgeFileNotFoundError):
            by_name["mix-missing"].unwrap()
        for name in names:
            assert by_name[name].ok, (method, name, by_name[name].error)
        if method == "mdelete":
            # Deletes already consumed the namespace; recreate it so the
            # next method in the loop sees the same world.
            create_all(system, client, names, width=1)


def test_mcreate_reports_exists_per_name():
    system = make_system(4, bridge_server_count=2)
    client = system.partitioned_client()
    create_all(system, client, ["dup-live"], width=1)

    # An existing name and an in-batch duplicate both settle as
    # per-occurrence exists errors; fresh names still create.
    batch = ["dup-a", "dup-live", "dup-b", "dup-a"]
    outcomes = run_batch(system, client, "mcreate", batch, width=1)
    assert outcomes[0].ok
    assert isinstance(outcomes[1].error, BridgeFileExistsError)
    assert outcomes[2].ok
    assert isinstance(outcomes[3].error, BridgeFileExistsError)

    opened = run_batch(system, client, "mopen", ["dup-a", "dup-b"])
    assert all(outcome.ok for outcome in opened)


def test_empty_batch_is_rejected():
    """Only an empty batch fails, and it fails the same way on every
    fabric: the partition-routed client refuses it exactly as a single
    server does, so the answer does not depend on the ring."""
    from repro.core import BridgeClient

    system = make_system(4, bridge_server_count=2)
    direct = BridgeClient(system.client_node, system.bridges[0].port)
    elastic = BridgeSystem(4, elastic=True)
    for owner, client in ((system, system.partitioned_client()),
                          (system, direct),
                          (elastic, elastic.naive_client())):
        def body(client=client):
            return (yield from client.mopen([]))

        with pytest.raises(ProcessError, match="mopen: empty name batch"):
            owner.run(body())


def test_mstat_matches_singleton_stat():
    system = make_system(4, bridge_server_count=2)
    client = system.partitioned_client()
    names = [f"st-{i}" for i in range(5)]
    create_all(system, client, names, width=2)

    def singles():
        stats = []
        for name in names:
            stats.append((yield from client.stat(name)))
        return stats

    singles_out = system.run(singles())
    batch_out = run_batch(system, client, "mstat", names)
    for single, outcome in zip(singles_out, batch_out):
        stat = outcome.unwrap()
        assert (stat.name, stat.file_id, stat.width, stat.start,
                stat.total_blocks) == (
            single.name, single.file_id, single.width, single.start,
            single.total_blocks)


# ---------------------------------------------------------------------------
# RPC window math
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("window", [0, 3, 16])
def test_observed_rpcs_match_the_model(window):
    config = DEFAULT_CONFIG.with_changes(bridge_fanout_limit=window)
    system = make_system(4, bridge_server_count=4, config=config)
    client = system.partitioned_client()
    names = [f"win-{i:02d}" for i in range(20)]

    def served():
        return sum(bridge.requests_served for bridge in system.bridges)

    for method, kwargs in (("mcreate", {"width": 1}), ("mopen", {}),
                           ("mstat", {}), ("mdelete", {})):
        before = served()
        outcomes = run_batch(system, client, method, names, **kwargs)
        assert all(outcome.ok for outcome in outcomes), method
        assert served() - before == batched_rpc_count(
            names, 4, window=window
        ), (method, window)


# ---------------------------------------------------------------------------
# Interplay with the other subsystems
# ---------------------------------------------------------------------------


def test_mcreate_uses_tree_dispatch_when_configured():
    config = DEFAULT_CONFIG.with_changes(create_uses_tree=True)
    system = make_system(8, bridge_server_count=2, config=config)
    client = system.partitioned_client()
    names = [f"tr-{i}" for i in range(6)]
    create_all(system, client, names)  # full width -> relay tree path

    outcomes = run_batch(system, client, "mopen", names)
    for outcome in outcomes:
        assert outcome.unwrap().width == 8


def test_mdelete_bumps_cache_generations_like_delete():
    config = DEFAULT_CONFIG.with_changes(bridge_cache_blocks=16)
    system = BridgeSystem(4, seed=5, disk_latency=FixedLatency(0.0005),
                          config=config)
    client = system.naive_client()
    names = ["gen-a", "gen-b"]

    def build():
        for name in names:
            yield from client.create(name, width=1)
            yield from client.seq_write(name, name.encode())
            yield from client.seq_read(name)  # warm the bridge cache

    system.run(build())
    bridge = system.bridges[0]
    before = {name: bridge._cache.generation(name) for name in names}

    outcomes = run_batch(system, client, "mdelete", names)
    for outcome in outcomes:
        outcome.unwrap()
    for name in names:
        assert bridge._cache.generation(name) == before[name] + 1, name
        assert not bridge._cache.contains(name, 0), name


def test_batch_telemetry_recorded_when_obs_on():
    system = make_system(4, bridge_server_count=2, obs=True)
    client = system.partitioned_client()
    names = [f"tel-{i}" for i in range(7)]
    create_all(system, client, names, width=1)
    run_batch(system, client, "mstat", names)

    metrics = system.obs.metrics
    sizes = metrics.histogram("bridge.batch.names")
    # One observation per server-side batch: the mcreate sub-batches
    # plus the mstat sub-batches, each recording its name count.
    assert sizes.count == 4
    assert sizes.total == 2 * len(names)
    snapshot = metrics.snapshot()
    batches = [value for key, value in snapshot.items()
               if key.endswith(".batch.mstat.batches")]
    counted = [value for key, value in snapshot.items()
               if key.endswith(".batch.mstat.names")]
    assert sum(batches) == 2  # one RPC per touched partition
    assert sum(counted) == len(names)


def test_batch_telemetry_off_by_default():
    system = make_system(4, bridge_server_count=2)
    assert system.obs is None
    client = system.partitioned_client()
    create_all(system, client, ["quiet-0", "quiet-1"], width=1)


def test_name_outcome_unwrap_round_trip():
    ok = NameOutcome("x", value=41)
    assert ok.ok and ok.unwrap() == 41
    bad = NameOutcome("x", error=BridgeFileNotFoundError("x"))
    assert not bad.ok
    with pytest.raises(BridgeFileNotFoundError):
        bad.unwrap()


# ---------------------------------------------------------------------------
# One body per verb: the singleton is the batch driver's names=None case
# ---------------------------------------------------------------------------


def _one_server():
    """One Bridge Server, a plain client, and two 3-block files."""
    system = make_system(4)
    client = system.naive_client()

    def body():
        for name in ("a", "b"):
            yield from client.create(name)
            yield from client.write_all(name, [b"x"] * 3)

    system.run(body())
    return system, client


def _single_and_batch_of_one(verb):
    """``(singleton's value, the batch-of-one's value)`` on equal state."""
    system, client = _one_server()
    if verb == "create":  # equal state = the same name on a twin system
        twin, twin_client = _one_server()
        return (system.run(client.create("c", width=2)),
                run_batch(twin, twin_client, "mcreate", ["c"],
                          width=2)[0].unwrap())
    second = "b" if verb == "delete" else "a"  # "a" is gone after a delete
    return (system.run(getattr(client, verb)("a")),
            run_batch(system, client, "m" + verb, [second])[0].unwrap())


@pytest.mark.parametrize("verb", ["open", "stat", "create", "delete"])
def test_singleton_and_batch_of_one_return_equal_values(verb):
    single, batched = _single_and_batch_of_one(verb)
    assert single == batched
    if verb == "delete":
        assert single == 3  # blocks freed


@pytest.mark.parametrize("verb", ["open", "stat", "create", "delete"])
def test_a_refused_name_costs_the_probe_and_never_the_commit(verb):
    """Server busy time of a request whose one name is refused: the
    singleton pays decode + probe and stops where the error is raised;
    the batch also pays its per-name charge and — Create and Delete
    commit once per batch, refused names or not — the update."""
    system, client = _one_server()
    cpu = system.config.cpu
    name = "a" if verb == "create" else "missing"  # exists / not found
    error = BridgeFileExistsError if verb == "create" else BridgeFileNotFoundError
    probe = cpu.bridge_request + cpu.bridge_directory_probe

    before = system.bridge.busy_time
    with pytest.raises(ProcessError) as raised:
        system.run(getattr(client, verb)(name))
    assert isinstance(raised.value.__cause__, error)
    assert system.bridge.busy_time - before == pytest.approx(probe)

    before = system.bridge.busy_time
    (outcome,) = run_batch(system, client, "m" + verb, [name])
    assert isinstance(outcome.error, error)
    commits = verb in ("create", "delete")
    assert system.bridge.busy_time - before == pytest.approx(
        probe + cpu.bridge_batch_name
        + (cpu.bridge_directory_update if commits else 0.0)
    )
