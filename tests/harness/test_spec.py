"""``SystemSpec``: the keyword sugar, the data form, validation.

The first half pins the refactor's contract — every keyword form a
caller used before the spec existed normalises to the spelled-out
``SystemSpec`` and builds the same system, event for event; the second
half covers the defects the polymorphic keywords used to hide.
"""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.elastic import RebalanceConfig
from repro.harness import PRESETS, BridgeSystem, SystemSpec, paper_system
from repro.storage import FixedLatency, GeometricLatency, wren_geometric
from repro.workloads import write_then_stream

REPO = pathlib.Path(__file__).resolve().parents[2]

FAST = {"kind": "ram", "access_time": 0.0005}

#: (keywords as callers write them, the SystemSpec fields they mean).
KEYWORD_FORMS = [
    ({}, {}),
    ({"seed": 7}, {"seed": 7}),
    ({"config": DEFAULT_CONFIG.with_changes(create_uses_tree=True)},
     {"config": DEFAULT_CONFIG.with_changes(create_uses_tree=True)}),
    ({"disk_latency": FixedLatency(0.0005)}, {"storage": (FAST,)}),
    ({"disk_latency": FixedLatency(0.002), "storage": {"access_time": 0.001}},
     {"storage": ({"kind": "ram", "access_time": 0.001},)}),
    ({"storage": None}, {}),
    ({"storage": "object"}, {"storage": ({"kind": "object"},)}),
    ({"storage": {"access_time": 0.002}},
     {"storage": ({"kind": "ram", "access_time": 0.002},)}),
    ({"storage": ["ram", "ram", "ram", "object"],
      "disk_latency": FixedLatency(0.0005)},
     {"storage": (FAST, FAST, FAST, {"kind": "object"})}),
    ({"network": "ethernet"}, {"network": "ethernet"}),
    ({"bridge_server_count": 2}, {"bridge_server_count": 2}),
    ({"redundancy": "parity"}, {"redundancy": "parity"}),
    ({"redundancy": "mirror"}, {"redundancy": "mirror"}),
    ({"prefetch_window": 2},
     {"config": DEFAULT_CONFIG.with_changes(prefetch_window=2)}),
    ({"prefetch_window": 1, "bridge_cache_blocks": 10},
     {"config": DEFAULT_CONFIG.with_changes(prefetch_window=1,
                                            bridge_cache_blocks=10)}),
    ({"obs": True}, {"obs": True}),
    ({"obs": False}, {}),
    ({"elastic": None}, {}),
    ({"elastic": False, "bridge_server_count": 2}, {"bridge_server_count": 2}),
    ({"elastic": True, "bridge_server_count": 2},
     {"bridge_server_count": 2, "ring": "consistent"}),
    ({"elastic": 4, "bridge_server_count": 2},
     {"bridge_server_count": 2, "ring": "consistent", "spare_servers": 2}),
    ({"rebalance": {}, "bridge_server_count": 4},
     {"bridge_server_count": 4, "ring": "consistent",
      "rebalance": RebalanceConfig()}),
    ({"rebalance": {"cooldown": 1.0}, "elastic": 4, "bridge_server_count": 4},
     {"bridge_server_count": 4, "ring": "consistent",
      "rebalance": RebalanceConfig(cooldown=1.0)}),
    ({"rebalance": {"watch_only": True}, "bridge_server_count": 2},
     {"bridge_server_count": 2, "ring": "consistent",
      "rebalance": RebalanceConfig(watch_only=True)}),
    ({"seed": 7, "bridge_server_count": 4, "obs": True,
      "disk_latency": FixedLatency(0.0005)},
     {"seed": 7, "bridge_server_count": 4, "obs": True, "storage": (FAST,)}),
]


def fingerprint(system):
    """What a run's event sequence leaves behind."""
    system.run(write_then_stream(system, "f", 24))
    servers = system.bridges + system.efs_servers + system.relays
    return (system.sim.events_executed, system.sim.now,
            [server.requests_served for server in servers])


@pytest.mark.parametrize("keywords, fields", KEYWORD_FORMS)
def test_keyword_sugar_is_the_spelled_out_spec(keywords, fields):
    spec = SystemSpec(lfs_count=4, **fields)
    sugared = BridgeSystem(4, **keywords)
    assert sugared.spec == spec
    assert SystemSpec.from_keywords(4, **keywords) == spec
    assert fingerprint(sugared) == fingerprint(BridgeSystem(spec))


def test_trace_export_implies_obs_and_writes_the_trace(tmp_path):
    path = str(tmp_path / "trace.json")
    system = paper_system(4, trace_export=path)
    assert system.spec == SystemSpec(lfs_count=4, obs=True, trace_export=path)
    fingerprint(system)
    assert json.loads(pathlib.Path(path).read_text())["traceEvents"]


def test_live_disk_latency_model_rides_in_the_driver_spec():
    _params, model = wren_geometric()
    spec = SystemSpec.from_keywords(2, disk_latency=model)
    assert all(entry == {"kind": "ram", "latency": model}
               for entry in spec.storage)
    assert isinstance(BridgeSystem(spec).disks[0].latency, GeometricLatency)


def test_spec_and_keywords_do_not_mix():
    with pytest.raises(TypeError, match="one or the other"):
        BridgeSystem(SystemSpec(lfs_count=2), seed=3)


def test_presets_are_the_systems_the_repo_builds():
    assert set(PRESETS) == {"paper", "open-loop", "acceptance"}
    assert SystemSpec.preset("paper", lfs_count=8) == SystemSpec(lfs_count=8)
    assert (SystemSpec.preset("acceptance")
            == SystemSpec.from_keywords(4, seed=0, obs=True))
    assert (
        SystemSpec.preset("open-loop", lfs_count=6, seed=7,
                          bridge_server_count=2)
        == SystemSpec.from_keywords(6, seed=7, bridge_server_count=2,
                                    disk_latency=FixedLatency(0.0005))
    )


# ---------------------------------------------------------------------------
# The data form
# ---------------------------------------------------------------------------

_fixed = st.floats(min_value=0.0, max_value=0.1, allow_nan=False)
_driver_specs = st.one_of(
    st.just({"kind": "ram"}),
    st.fixed_dictionaries({"kind": st.just("ram"), "access_time": _fixed}),
    st.fixed_dictionaries({"kind": st.just("ram"), "access_time": _fixed,
                           "scheduler": st.sampled_from(["fcfs", "sstf"])}),
    st.fixed_dictionaries({"kind": st.just("hostfs"),
                           "root": st.just("/tmp/blocks"),
                           "fsync": st.sampled_from(["never", "always"])}),
    st.just({"kind": "object"}),
)


@st.composite
def data_only_specs(draw):
    lfs_count = draw(st.integers(1, 6))
    elastic = draw(st.booleans())
    return SystemSpec(
        lfs_count=lfs_count,
        config=DEFAULT_CONFIG.with_changes(
            prefetch_window=draw(st.integers(0, 4)),
            bridge_cache_blocks=draw(st.integers(0, 64)),
            efs_write_behind=draw(st.booleans()),
        ),
        seed=draw(st.integers(0, 2**31)),
        storage=tuple(draw(st.lists(
            _driver_specs, min_size=lfs_count, max_size=lfs_count))),
        network=draw(st.sampled_from(["butterfly", "ethernet"])),
        bridge_server_count=draw(st.integers(1, 4)),
        ring="consistent" if elastic else "modulo",
        spare_servers=draw(st.integers(0, 3)) if elastic else 0,
        redundancy=draw(st.sampled_from(["none", "mirror", "parity"])),
        rebalance=(RebalanceConfig(interval=draw(st.floats(0.5, 4.0)),
                                   watch_only=draw(st.booleans()))
                   if elastic and draw(st.booleans()) else None),
        obs=draw(st.booleans()),
    )


@given(data_only_specs())
@settings(max_examples=60, deadline=None)
def test_to_dict_round_trips_through_json(spec):
    data = spec.to_dict()
    assert SystemSpec.from_dict(json.loads(json.dumps(data))) == spec
    assert SystemSpec.from_dict(data) == spec


def test_from_dict_defaults_absent_fields():
    spec = SystemSpec.from_dict(
        {"lfs_count": 3, "config": {"prefetch_window": 2,
                                    "cpu": {"spawn": 0.001}}})
    assert spec.config.prefetch_window == 2
    assert spec.config.cpu.spawn == 0.001
    assert spec.config.messages == DEFAULT_CONFIG.messages
    assert spec.storage == ({"kind": "ram"},) * 3


def test_to_dict_refuses_a_live_object_by_field_name():
    def factory(sim, name, capacity_blocks):
        raise AssertionError("never built")

    with pytest.raises(ValueError, match=r"storage\[1\] holds a live object"):
        SystemSpec.from_keywords(2, storage=["ram", factory]).to_dict()
    _params, model = wren_geometric()
    with pytest.raises(ValueError, match=r"storage\[0\]\.latency"):
        SystemSpec.from_keywords(2, disk_latency=model).to_dict()


def test_spec_is_frozen():
    spec = SystemSpec(lfs_count=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seed = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.storage = ()


# ---------------------------------------------------------------------------
# Validation: what the polymorphic keywords used to let through
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("elastic", [0, 1, 2])
def test_elastic_count_below_the_active_servers_is_refused(elastic):
    with pytest.raises(ValueError, match="provisions fewer servers"):
        BridgeSystem(2, bridge_server_count=3, elastic=elastic)


def test_elastic_one_is_a_count_not_true():
    with pytest.raises(ValueError, match="provisions fewer servers"):
        BridgeSystem(2, bridge_server_count=2, elastic=1)
    assert BridgeSystem(2, elastic=1).spec.spare_servers == 0


@pytest.mark.parametrize("network", ["ethernt", None, 3, object()])
def test_unknown_network_is_refused_at_construction(network):
    with pytest.raises(ValueError, match="network="):
        BridgeSystem(2, network=network)


def test_network_names_build_the_registered_interconnect():
    assert type(BridgeSystem(2).machine.network).__name__ == "ButterflyNetwork"
    ethernet = BridgeSystem(2, network="ethernet")
    assert type(ethernet.machine.network).__name__ == "EthernetNetwork"
    fingerprint(ethernet)  # and it carries messages


@pytest.mark.parametrize("field", ["prefetch_window", "bridge_cache_blocks"])
def test_negative_cache_knobs_are_refused_by_name(field):
    with pytest.raises(ValueError, match=field):
        BridgeSystem(2, **{field: -1})
    with pytest.raises(ValueError, match=field):
        SystemSpec(lfs_count=2, config=DEFAULT_CONFIG.with_changes(**{field: -1}))


def test_inconsistent_specs_are_refused():
    with pytest.raises(ValueError, match="ring"):
        SystemSpec(lfs_count=2, spare_servers=1)
    with pytest.raises(ValueError, match="ring"):
        SystemSpec(lfs_count=2, rebalance=RebalanceConfig())
    with pytest.raises(ValueError, match="ring="):
        SystemSpec(lfs_count=2, ring="rendezvous")
    with pytest.raises(ValueError, match="redundancy="):
        SystemSpec(lfs_count=2, redundancy="raid6")
    with pytest.raises(ValueError, match="trace_export"):
        SystemSpec(lfs_count=2, trace_export="t.json")
    with pytest.raises(ValueError, match="one driver spec per LFS"):
        SystemSpec(lfs_count=3, storage=({"kind": "ram"},) * 2)
    with pytest.raises(ValueError, match="unknown storage driver kind"):
        SystemSpec(lfs_count=2, storage=({"kind": "tape"},))
    with pytest.raises(ValueError, match="elastic="):
        BridgeSystem(2, elastic="yes")


@pytest.mark.parametrize("removed", [
    "admission", "disk_capacity_blocks", "rebuild_rate", "with_relays",
])
def test_removed_keywords_are_gone(removed):
    with pytest.raises(TypeError, match=removed):
        BridgeSystem(2, **{removed: None})


def test_from_dict_refuses_a_policy_constant_by_name():
    """The rebalancer's budgets are constants of the policy, not spec
    data: loading one is refused like any unknown key."""
    with pytest.raises(TypeError, match="move_budget"):
        SystemSpec.from_dict({"rebalance": {"move_budget": 3}})


# ---------------------------------------------------------------------------
# Docs drift
# ---------------------------------------------------------------------------


def test_design_configuration_table_lists_every_field():
    design = (REPO / "DESIGN.md").read_text()
    start = design.index("### Configuration")
    section = design[start:design.index("\n## ", start)]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = {row.split("`")[1] for row in rows}
    assert documented == {f.name for f in dataclasses.fields(SystemSpec)}
