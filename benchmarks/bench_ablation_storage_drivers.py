"""S25 — pluggable storage drivers and heterogeneous fabrics (E26).

Three fabrics under the identical build + contended-read workload (see
:func:`repro.harness.experiments.run_storage_driver_experiment`):

* ``ram`` — the seed's in-memory simulated disks on every slot;
* ``object`` — the object-store driver everywhere (high first-byte
  latency, bandwidth-dominated transfer, bounded in-flight ops);
* ``hetero`` — the 3-fast/1-slow fabric: ram on slots 0-2, object on
  slot 3.  One slow device in an interleaved fabric gates every
  full-width operation, and the S24 heat map — installed at the device
  layer via ``attach_storage_heat`` — should attribute the imbalance to
  that slot without being told which one it is.

Checks: the homogeneous arms stay balanced (heat shares within 5 % of
even) while ordering ram < object on read wall-clock; the heterogeneous
arm's read is gated by its slow slot (no faster than the all-object
arm's on the same workload shape), and the heat map names slot 3 as the
hottest with at least 1.5x any fast slot's busy share.

Also runnable as a script (the CI smoke job)::

    python benchmarks/bench_ablation_storage_drivers.py --quick
"""

from _bench import Bench
from repro.harness.experiments import run_storage_driver_experiment

SEED = 0
P = 4
SLOW_SLOT = 3

#: (label, storage spec) — two homogeneous arms plus the 3-fast/1-slow one.
ARMS = (
    ("ram", None),
    ("object", "object"),
    ("hetero", ["ram"] * SLOW_SLOT + ["object"]),
)


def sweep(quick):
    # The experiment's own floor (file > per-LFS cache) already defines
    # the smallest honest run; quick mode runs the same arms and only
    # skips the JSON artifact.
    return {
        "p": P,
        "seed": SEED,
        "slow_slot": SLOW_SLOT,
        "arms": {
            label: run_storage_driver_experiment(P, seed=SEED, storage=storage)
            for label, storage in ARMS
        },
    }


def check(document) -> None:
    runs = document["arms"]
    for label, run in runs.items():
        # The contended read actually reached every device.
        assert all(ops > 0 for ops in run["node_read_ops"]), (
            label, run["node_read_ops"])
        # Interleaved placement spreads the same op count to every slot.
        assert max(run["node_read_ops"]) == min(run["node_read_ops"]), (
            label, run["node_read_ops"])
    ram, obj, het = runs["ram"], runs["object"], runs["hetero"]
    # Driver registry wired what each arm asked for.
    assert ram["driver_kinds"] == ["ram"] * P
    assert obj["driver_kinds"] == ["object"] * P
    assert het["driver_kinds"] == ["ram"] * SLOW_SLOT + ["object"]
    # Homogeneous fabrics stay balanced: heat shares within 5% of even.
    for label in ("ram", "object"):
        shares = runs[label]["heat_busy_shares"]
        assert max(shares) <= (1.0 / P) * 1.05, (label, shares)
    # The object store's first-byte latency dominates the ram disk.
    assert obj["read_seconds"] > ram["read_seconds"], (
        obj["read_seconds"], ram["read_seconds"])
    assert obj["build_seconds"] > ram["build_seconds"], (
        obj["build_seconds"], ram["build_seconds"])
    # One slow slot gates the whole interleaved read: the hetero arm is
    # no faster than the all-object arm on the same workload shape.
    assert het["read_seconds"] >= 0.95 * obj["read_seconds"], (
        het["read_seconds"], obj["read_seconds"])
    # The attribution headline: the S24 heat map names the slow slot,
    # with at least 1.5x any fast slot's busy share, and the read-phase
    # busy fractions agree.
    shares = het["heat_busy_shares"]
    assert het["hottest_slot"] == SLOW_SLOT, shares
    fast_shares = [s for i, s in enumerate(shares) if i != SLOW_SLOT]
    assert shares[SLOW_SLOT] >= 1.5 * max(fast_shares), shares
    fractions = het["node_busy_fractions"]
    assert fractions[SLOW_SLOT] == max(fractions), fractions


BENCH = Bench("storage_drivers", sweep, check)
test_storage_driver_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
