"""End-to-end S24: the experiment runner and its BENCH row.

One small Zipf-skewed run per arm — enough traffic for the heat map to
see the skew, short enough for CI — checking the row's derived fields
and the safety oracle's verdict rather than re-asserting the E25
headline (that's the bench's job, at bench scale).
"""

from repro.harness.experiments import run_rebalance_experiment


def run(active):
    return run_rebalance_experiment(
        rate=90.0, duration=6.0, servers=4, seed=7, files=24, blocks=6,
        skew=1.2, active=active,
    )


def test_watch_arm_records_without_acting():
    run_off = run(active=False)
    assert not run_off["active"]
    assert run_off["actions"] == 0 and run_off["moves"] == 0
    assert run_off["sweeps"], "the watcher still sweeps"
    assert run_off["route_bound_final"] == run_off["route_bound_static"]
    assert (run_off["lost"] == run_off["misrouted"] == run_off["duplicated"]
            == run_off["content_mismatched"] == 0 and run_off["fsck_clean"])
    assert run_off["content_mismatched"] == 0
    assert int(run_off["summary"]["failed"]) == 0
    assert len(run_off["busy_fractions"]) == 4
    assert 0.0 <= run_off["utilization_spread"] <= 1.0
    assert float(run_off["summary"]["classes"]["read"]["p99"]) > 0
    assert (len(run_off["read_p99_trajectory_ms"])
            == len(run_off["sweeps"]))


def test_active_arm_stays_safe_while_acting():
    run_on = run(active=True)
    assert run_on["active"]
    assert run_on["actions"] >= 1, [s["action"] for s in run_on["sweeps"]]
    assert run_on["moves"] >= 1 and run_on["arcs_shed"] >= 1
    assert (run_on["lost"] == run_on["misrouted"] == run_on["duplicated"]
            == run_on["content_mismatched"] == 0 and run_on["fsck_clean"])
    assert run_on["content_mismatched"] == 0
    assert run_on["route_bound_final"] > run_on["route_bound_static"]
    assert run_on["goodput"] > 0
    assert run_on["heat"]["recorded"] > 0


def test_heat_is_read_before_the_safety_oracle():
    """The heat row is the workload's: the Zipf head is among the hot
    names, not the oracle's readback of the last catalog files."""
    run_off = run(active=False)
    assert "tf000" in [hot["name"] for hot in run_off["heat"]["hot_names"]]
