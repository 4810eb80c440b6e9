"""S24 control-loop behavior: wiring, decision gates, live shedding.

The policy is deliberately boring — a gated greedy loop — so every gate
gets a test: idle fabric, balanced fabric, cooldown after acting, no
shed candidate, watch-only.  The acting path is tested against a real
fabric: files created through the partitioned client, synthetic heat
painted on one partition, one sweep run, and then the ownership map is
re-derived from the live ring to prove nothing was stranded.
"""

import pytest

from repro.elastic import HeatMap, RebalanceConfig, Rebalancer, migrate, policy
from repro.harness.builders import BridgeSystem
from repro.storage import FixedLatency


def make_system(rebalance=None, servers=4, seed=11, **kwargs):
    rebalance = {} if rebalance is None else rebalance
    return BridgeSystem(
        4, seed=seed, disk_latency=FixedLatency(0.0005),
        bridge_server_count=servers, rebalance=rebalance, **kwargs,
    )


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


def test_rebalance_off_by_default():
    system = BridgeSystem(2, seed=0)
    assert system.heat is None
    assert system.rebalancer is None
    # No heat seam installed on any server.
    assert all(bridge.heat is None for bridge in system.bridges)


def test_rebalance_knob_implies_elastic_and_installs_heat():
    system = make_system(rebalance={})
    assert system.fabric.ring.kind == "consistent"
    assert isinstance(system.heat, HeatMap)
    assert all(bridge.heat is system.heat for bridge in system.bridges)
    assert [bridge.heat_partition for bridge in system.bridges] == [0, 1, 2, 3]
    assert isinstance(system.rebalancer, Rebalancer)


def test_rebalance_knob_accepts_config_and_dict_and_rejects_junk():
    """The settings arrive as a dict of ``RebalanceConfig`` fields;
    ``True``, a config instance and junk are refused."""
    assert make_system(
        rebalance={"threshold": 9.0}
    ).rebalancer.config.threshold == 9.0
    assert make_system(
        rebalance={"cooldown": 1.0}
    ).rebalancer.config.cooldown == 1.0
    for junk in (True, RebalanceConfig(threshold=9.0), "aggressive"):
        with pytest.raises(ValueError, match="rebalance="):
            make_system(rebalance=junk)


def test_rebalancer_refuses_a_modulo_fabric():
    system = BridgeSystem(2, seed=0, bridge_server_count=2)
    with pytest.raises(ValueError, match="consistent-hash"):
        Rebalancer(system, HeatMap(2))


# ---------------------------------------------------------------------------
# Decision gates (no files needed — the gates fire before planning)
# ---------------------------------------------------------------------------


def sweep_once(system):
    return system.run(system.rebalancer.sweep(), name="sweep")


def test_idle_fabric_is_left_alone():
    system = make_system()
    record = sweep_once(system)
    assert record.action == "idle"
    assert system.fabric.ring.dropped == frozenset()


def test_balanced_fabric_is_left_alone():
    system = make_system()
    for partition in range(4):
        system.heat.observe(partition, None, busy=0.1, now=0.0)
    record = sweep_once(system)
    assert record.action == "balanced"
    assert record.imbalance == pytest.approx(1.0)


def test_cooldown_suppresses_back_to_back_actions():
    system = make_system()
    system.heat.observe(0, "hot", busy=1.0, now=0.0)
    system.rebalancer._last_action = 0.0
    record = sweep_once(system)
    assert record.action == "cooldown"


def test_skew_without_a_movable_namespace_is_no_candidate():
    # Heat on names that own no files: every trial plan is empty, so
    # the policy must decline rather than flip to an identical ring.
    system = make_system()
    system.heat.observe(0, "ghost", busy=1.0, now=0.0)
    record = sweep_once(system)
    assert record.action == "no-candidate"
    assert system.fabric.ring.dropped == frozenset()


# ---------------------------------------------------------------------------
# The acting path, against a real namespace
# ---------------------------------------------------------------------------


def populate(system, count=48):
    client = system.partitioned_client()

    def body():
        for i in range(count):
            yield from client.create(f"rb-{i:03d}")

    system.run(body(), name="populate")
    return [f"rb-{i:03d}" for i in range(count)]


def paint_skew(system, names):
    """Make one partition hot through many medium-heat names, so that
    shedding any of its arcs strictly lowers the predicted peak."""
    ring = system.fabric.ring
    loads = [0] * ring.partitions
    for name in names:
        loads[ring.partition_of(name)] += 1
    hot = loads.index(max(loads))
    now = system.sim.now
    for name in names:
        busy = 0.08 if ring.partition_of(name) == hot else 0.004
        system.heat.observe(ring.partition_of(name), name, busy, now)
    return hot


def assert_ownership_consistent(system, names):
    for name in names:
        owner = system.fabric.partition_of(name)
        holders = [
            index for index, bridge in enumerate(system.bridges)
            if bridge.directory.exists(name)
        ]
        assert holders == [owner], (name, holders, owner)


def test_watch_only_records_but_never_acts():
    system = make_system(rebalance={"watch_only": True})
    names = populate(system)
    paint_skew(system, names)
    before = system.fabric.ring
    record = sweep_once(system)
    assert record.action == "watch"
    assert record.planned >= 1 and record.shed
    assert record.moved == 0
    assert system.fabric.ring is before
    assert_ownership_consistent(system, names)


def test_acting_sweep_sheds_arcs_and_strands_nothing():
    system = make_system()
    names = populate(system)
    hot = paint_skew(system, names)
    rates_before = system.heat.partition_rates(system.sim.now)
    record = sweep_once(system)
    assert record.action == "rebalance", record
    assert record.moved >= 1
    ring = system.fabric.ring
    assert ring.dropped, "an acting sweep drops at least one arc"
    assert all(partition == hot for partition, _vnode in ring.dropped)
    # Every moved name is where the live ring says it is; nothing lost,
    # nothing duplicated.
    assert_ownership_consistent(system, names)
    # The shed provably lowered the modeled peak: re-painting the same
    # per-name heat onto the new ring spreads it flatter.
    loads = [0.0] * ring.partitions
    now = system.sim.now
    for name, busy, _count in system.heat.name_heat(now):
        loads[ring.partition_of(name)] += busy
    assert max(loads) < max(rates_before)


def test_resizer_and_rebalancer_plan_over_the_same_names(monkeypatch):
    """Both planners read the one fabric-wide scan, taken at plan time:
    a file created mid-run is in every name set either of them plans."""
    planned = {migrate: [], policy: []}
    for module, seen in planned.items():
        def spy(old, new, names, seen=seen, plan=module.plan_resize):
            seen.append(set(names))
            return plan(old, new, names)
        monkeypatch.setattr(module, "plan_resize", spy)
    system = make_system(rebalance={"watch_only": True},
                         servers=3)
    names = populate(system)

    def body():
        yield from system.partitioned_client().create("late")
        paint_skew(system, names)
        record = yield from system.rebalancer.sweep()
        yield from system.resize_fabric(2)
        return record

    assert system.run(body()).action == "watch"
    assert planned[policy] and len(planned[migrate]) == 1
    for seen in planned[policy] + planned[migrate]:
        assert seen == set(names) | {"late"}


def test_run_is_duration_bounded_and_drains():
    system = make_system(rebalance={"interval": 1.0})
    records = system.run(system.rebalancer.run(3.5), name="loop")
    assert len(records) == 3  # sweeps at t=1, 2, 3; then the loop exits
    assert system.sim.now <= 3.5
    assert [record.action for record in records] == ["idle"] * 3


def test_sweep_records_export_as_plain_dicts():
    system = make_system()
    record = sweep_once(system)
    data = record.to_dict()
    assert data["action"] == "idle"
    assert isinstance(data["busy_rates"], list)


# ---------------------------------------------------------------------------
# Installing the subsystem must not perturb the simulation
# ---------------------------------------------------------------------------


def test_heat_seam_preserves_the_event_sequence():
    """Same seed, same workload, heat map installed vs not: identical
    event count and identical final clock — the accounting is a pure
    read-side seam, exactly like S19 observability."""

    def drive(system):
        names = populate(system, count=12)
        return names, system.sim.events_executed, system.sim.now

    _names, bare_events, bare_now = drive(
        BridgeSystem(4, seed=3, disk_latency=FixedLatency(0.0005),
                     bridge_server_count=4, elastic=True)
    )
    system = make_system(seed=3)
    _names, events, now = drive(system)
    assert system.heat.recorded > 0
    assert (events, now) == (bare_events, bare_now)
