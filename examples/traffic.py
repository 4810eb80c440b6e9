"""Driving production traffic: the open-loop S21 subsystem.

Sweeps one Bridge server (fast fixed-latency disks, so the server's
serial request loop is the bottleneck) with Poisson multi-class traffic
below and above its saturation knee, with no admission policy and with
weighted fair queueing + load shedding.  Watch the p99: open-loop
arrivals do not slow down when the server falls behind, so the
unprotected arm's tail collapses past the knee while the fair-queued
arm sheds the excess and keeps the served requests fast.

Run: python examples/traffic.py [duration_seconds]
"""

import sys

from repro.analysis import format_table
from repro.harness.experiments import run_traffic_experiment


def main(duration: float = 1.5) -> None:
    print(f"open-loop traffic, {duration:g}s of Poisson arrivals per run\n")
    rows = []
    for rate in (40, 160):
        for policy, params in (("none", None),
                               ("fair", {"depth": 32})):
            run = run_traffic_experiment(
                rate=rate, duration=duration, policy=policy,
                admission_params=params, seed=7,
            )
            read = run["classes"]["read"]
            rows.append([
                rate, policy, run["arrivals"], run["completed"],
                run["shed"] + run["throttled"],
                f"{run['goodput']:.1f}",
                f"{run['server_utilization']:.0%}",
                f"{read['p50'] * 1e3:.1f}",
                f"{read['p99'] * 1e3:.0f}",
            ])
    print(format_table(
        ["offered r/s", "policy", "arrivals", "ok", "refused",
         "goodput r/s", "server busy", "read p50 ms", "read p99 ms"],
        rows,
        title="latency vs offered load, with and without admission control",
    ))
    print(
        "\nPast the knee the unprotected p99 keeps growing with the "
        "backlog;\nfair queueing sheds excess arrivals (typed, sub-ms "
        "refusals) and\nholds the tail for the traffic it admits."
    )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 1.5)
