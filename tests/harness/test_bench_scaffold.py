"""The bench scaffold (``benchmarks/_bench.py``): one record gives a
bench its pytest test, its script entry point, ``--quick`` and its
``BENCH_<name>.json`` write."""

import importlib
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture
def scaffold(monkeypatch, tmp_path):
    """``_bench``, with ``BENCH_*.json`` writes redirected to tmp_path."""
    monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
    module = importlib.import_module("_bench")
    monkeypatch.setattr(importlib.import_module("_emit"), "REPO_ROOT", tmp_path)
    return module


class OneRound:
    """Stands in for the pytest-benchmark fixture."""

    def pedantic(self, fn, args=(), rounds=None, iterations=None):
        assert rounds == iterations == 1
        return fn(*args)


def toy_bench(scaffold, calls):
    def sweep(quick):
        calls.append(("sweep", quick))
        return 3

    def check(results):
        calls.append(("check", results))
        assert results == 3

    def render(results):
        calls.append(("render", results))
        return "toy table"

    def payload(results):
        calls.append(("payload", results))
        return {"value": results}

    return scaffold.Bench("toy", sweep, check, render, payload)


FULL_ORDER = [("sweep", False), ("check", 3), ("render", 3), ("payload", 3)]


def test_pytest_entry_runs_the_stages_in_order_and_writes(scaffold, tmp_path,
                                                         capsys):
    calls = []
    toy_bench(scaffold, calls).test()(OneRound())
    assert calls == FULL_ORDER
    assert "toy table" in capsys.readouterr().out
    assert json.loads((tmp_path / "BENCH_toy.json").read_text()) == {
        "bench": "toy", "value": 3}


def test_script_entry_runs_the_stages_in_order_and_writes(scaffold, tmp_path,
                                                         capsys):
    calls = []
    toy_bench(scaffold, calls).main([])
    assert calls == FULL_ORDER
    out = capsys.readouterr().out
    assert "toy table" in out and "toy: all assertions passed" in out
    assert (tmp_path / "BENCH_toy.json").exists()


def test_quick_mode_writes_nothing(scaffold, tmp_path, capsys):
    calls = []
    toy_bench(scaffold, calls).main(["--quick"])
    assert calls == [("sweep", True), ("check", 3), ("render", 3)]
    assert "(quick mode)" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_failed_check_writes_nothing(scaffold, tmp_path):
    bench = toy_bench(scaffold, [])
    failing = scaffold.Bench("toy", lambda quick: 4, bench.check,
                             bench.render, bench.payload)
    with pytest.raises(AssertionError):
        failing.main([])
    assert list(tmp_path.iterdir()) == []


def test_registry_matches_the_committed_json_files(scaffold):
    benches = scaffold.load_benches()
    names = [bench.name for bench in benches]
    assert len(names) == len(set(names))
    with_json = {bench.name for bench in benches if bench.payload is not None}
    committed = {path.stem[len("BENCH_"):] for path in REPO.glob("BENCH_*.json")}
    assert with_json == committed
    # bench_kernel.py's host-clock floors keep their own main; every
    # other bench script declares at least one Bench.
    declaring = {bench.sweep.__module__ for bench in benches}
    scripts = {path.stem for path in (REPO / "benchmarks").glob("bench_*.py")}
    assert scripts - declaring == {"bench_kernel"}
