"""The ledger's own checks, at ``--scale 0.02``.

    python -m pytest benchmarks/ledger -q

Not part of tier-1 (``testpaths`` there is ``tests/``).
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import compare
import run
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
SCALE = ["--scale", "0.02", "--reps", "1"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units of values that are a pure function of the seed.
SIM_UNITS = ("sim_s", "sim_ms", "req/sim_s", "count")


def ledger(capsys, *argv):
    """Run the ledger in-process; returns (exit code, stdout lines)."""
    capsys.readouterr()
    code = run.main(list(argv))
    return code, capsys.readouterr().out.splitlines()


def deterministic(record):
    """The seed-determined part of one record (profile call counts are
    host-side and only repeat to a few parts in 10 000)."""
    return {
        name: m["value"] for name, m in record["metrics"].items()
        if compare.is_exact(name)
        or (m["unit"] in SIM_UNITS and not name.endswith(".calls"))
    }


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Every workload once, untraced and traced, in this process."""
    out = {}
    tmp = tmp_path_factory.mktemp("ledger")
    for name in WORKLOADS:
        for trace in (0, 1):
            path = tmp / f"{name}.{trace}.json"
            code = run.main(["--workload", name, "--trace", str(trace),
                             "--out", str(path), *SCALE])
            assert code == 0, name
            out[name, trace] = json.loads(path.read_text())["workloads"][0]
    return out


def test_only_api_imports_repro():
    importing = re.compile(r"^\s*(from|import)\s+repro\b", re.M)
    offenders = [p.name for p in HERE.glob("*.py")
                 if p.name != "_api.py" and importing.search(p.read_text())]
    assert offenders == []


def test_benchmark_json_names_the_workloads():
    declared = {w["name"]: w["why"] for w in run.CONTRACT["workloads"]}
    assert declared == {w.name: w.why for w in WORKLOADS.values()}
    assert run.CONTRACT["paths"] == ["benchmarks/ledger"]
    assert len(run.PER_LAYER) == len(run.CONTRACT["per_layer"]) <= 128
    assert all(NAME.fullmatch(name) for name in run.UNITS)


def test_every_declared_metric_is_emitted(records):
    emitted = {0: set(), 1: set()}
    for (name, trace), record in records.items():
        declared = run.PER_LAYER if trace else {**run.E2E, **run.PER_LAYER}
        for metric, value in record["metrics"].items():
            assert metric in declared, (name, metric)
            assert value["unit"] == declared[metric]["unit"]
        emitted[trace] |= record["metrics"].keys()
    assert emitted[0] >= run.E2E.keys()
    assert emitted[1] == run.PER_LAYER.keys()


def test_each_metric_is_printed_once_and_the_last_line_is_the_contract(capsys):
    code, lines = ledger(capsys, "--workload", "cached_read", "--trace", "1",
                         *SCALE)
    assert code == 0
    printed = [line.split()[0] for line in lines[1:-1]]
    assert len(printed) == len(set(printed))
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["metrics"].keys() == run.PER_LAYER.keys()
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    code, lines = ledger(capsys, "--workload", "cached_read", *SCALE)
    assert json.loads(lines[-1])["metrics"].keys() == run.E2E.keys()


@pytest.mark.parametrize("name", ["cached_read", "traffic_mix",
                                  "resize_under_load", "sort_p32"])
def test_sim_values_repeat_per_seed_and_move_with_it(records, tmp_path, name):
    def again(seed):
        path = tmp_path / f"{seed}.json"
        assert run.main(["--workload", name, "--seed", str(seed),
                         "--out", str(path), *SCALE]) == 0
        return deterministic(json.loads(path.read_text())["workloads"][0])

    first = deterministic(records[name, 0])
    assert again(7) == first
    assert again(8) != first


def test_host_shares_and_critical_path_shares_sum_to_one(records):
    for name in WORKLOADS:
        metrics = records[name, 1]["metrics"]
        host = sum(m["value"] for key, m in metrics.items()
                   if key.endswith(".host_self_share"))
        path = sum(m["value"] for key, m in metrics.items()
                   if key.startswith("cp.") and key.endswith("_share"))
        assert host == pytest.approx(1.0, abs=0.01), name
        assert path == pytest.approx(1.0, abs=1e-6), name


def test_a_corrupted_shadow_copy_fails_the_run(capsys, monkeypatch):
    workload = WORKLOADS["cached_read"]
    preload = workload.preload

    def corrupt(st):
        preload(st)
        block = st.shadow[0]
        st.shadow[0] = bytes([block[0] ^ 1]) + block[1:]

    monkeypatch.setattr(workload, "preload", corrupt)
    # (the traced pass measures in this process, where the patch lives)
    code, lines = ledger(capsys, "--workload", "cached_read", "--trace", "1",
                         *SCALE)
    last = json.loads(lines[-1])
    assert code == 1 and not last["correct"] and last["failed"] >= 1
    assert any("FAILED CHECK" in line for line in lines)


def test_trace_out_holds_the_ledgers_own_spans(tmp_path):
    path = tmp_path / "trace.json"
    assert run.main(["--workload", "layer_ladder", "--trace-out", str(path),
                     *SCALE]) == 0
    events = json.loads(path.read_text())["traceEvents"]
    names = {event["name"] for event in events}
    assert {"layer_ladder", "rep", "drive", "sim.timeout", "core.naive"} <= names
    # One run id per measuring process (the untraced pass runs one per
    # CPU); parent ids resolve within a run.
    ids = {(event["args"]["run"], event["args"]["id"]) for event in events}
    assert len(ids) == len(events)
    for event in events:
        parent = event["args"]["parent"]
        assert parent is None or (event["args"]["run"], parent) in ids
        assert event["dur"] >= 0


def test_compare_verdicts(records):
    # (tiny timings spread widely; the verdict logic is what is tested)
    same = {key: {**r, "spread": {}} for key, r in records.items()
            if key[1] == 0}
    rows, changed = compare.compare(same, same)
    assert changed == [] and {row[5] for row in rows} == {"same"}
    assert len(rows) == len(WORKLOADS) * len(run.E2E)

    slower = json.loads(json.dumps(same["naive_stream", 0]))
    slower["metrics"]["host_s"]["value"] *= 1.5
    slower["metrics"]["sim_s"]["value"] += 1e-9
    rows, changed = compare.compare(
        {("naive_stream", 0): same["naive_stream", 0]},
        {("naive_stream", 0): slower})
    assert [row[5] for row in rows if row[1] == "host_s"] == ["worse"]
    assert changed and changed[0].startswith("sim changed: naive_stream sim_s")

    noisy = json.loads(json.dumps(same["naive_stream", 0]))
    noisy["spread"]["host_s"] = 0.5
    rows, _ = compare.compare({("naive_stream", 0): same["naive_stream", 0]},
                              {("naive_stream", 0): noisy})
    assert [row[5] for row in rows if row[1] == "host_s"] == ["unresolved"]


def test_a_directory_with_only_the_benchmark_exits_non_zero(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "naive_stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
