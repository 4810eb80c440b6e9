"""The bench scaffold (``benchmarks/_bench.py``): one record gives a
bench its pytest test, its script entry point, ``--quick``, the document
it prints and its ``BENCH_<name>.json`` write."""

import importlib
import json
import pathlib
import re

import pytest

from repro.analysis import format_cell

REPO = pathlib.Path(__file__).resolve().parents[2]
RULE = re.compile(r"-+(?: +-+)*")


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

    def payload(results):
        calls.append(("payload", results))
        return {"value": results}

    return scaffold.Bench("toy", sweep, check, payload)


FULL_ORDER = [("sweep", False), ("check", 3), ("payload", 3)]


def test_pytest_entry_runs_the_stages_in_order_and_writes(scaffold, tmp_path,
                                                         capsys):
    calls = []
    toy_bench(scaffold, calls).test()(OneRound())
    assert calls == FULL_ORDER
    assert "value: 3" in capsys.readouterr().out
    assert json.loads((tmp_path / "BENCH_toy.json").read_text()) == {
        "bench": "toy", "value": 3}


def test_script_entry_runs_the_stages_in_order_and_writes(scaffold, tmp_path,
                                                         capsys):
    calls = []
    toy_bench(scaffold, calls).main([])
    assert calls == FULL_ORDER
    out = capsys.readouterr().out
    assert "value: 3" in out and "toy: all assertions passed" in out
    assert (tmp_path / "BENCH_toy.json").exists()


def test_quick_mode_writes_nothing(scaffold, tmp_path, capsys):
    calls = []
    toy_bench(scaffold, calls).main(["--quick"])
    assert calls == [("sweep", True), ("check", 3), ("payload", 3)]
    out = capsys.readouterr().out
    assert "value: 3" in out and "(quick mode)" in out
    assert list(tmp_path.iterdir()) == []


def test_failed_check_writes_nothing(scaffold, tmp_path):
    bench = toy_bench(scaffold, [])
    failing = scaffold.Bench("toy", lambda quick: 4, bench.check,
                             bench.payload)
    with pytest.raises(AssertionError):
        failing.main([])
    assert list(tmp_path.iterdir()) == []


def test_bench_without_payload_prints_its_sweep_and_writes_nothing(
        scaffold, tmp_path, capsys):
    bench = scaffold.Bench("host", lambda quick: {"host_s": 0.25},
                           lambda results: None)
    bench.main([])
    assert "host_s: 0.25" in capsys.readouterr().out
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


# ---------------------------------------------------------------------------
# format_document: what a bench prints is the document it writes
# ---------------------------------------------------------------------------


def printed(text):
    """A printed document read back: ``({path: value}, {label: {row key:
    {column: cell}}})``, each table's columns cut at the ``---`` rule
    under its header."""
    lines, tables = {}, {}
    rows = text.splitlines()
    index = 0
    while index < len(rows):
        if index + 1 < len(rows) and RULE.fullmatch(rows[index + 1]):
            spans = [m.span() for m in re.finditer("-+", rows[index + 1])]
            label, *columns = [rows[index][a:b].strip() for a, b in spans]
            table = tables.setdefault(label, {})
            index += 2
            while index < len(rows) and rows[index].strip():
                key, *cells = [rows[index][a:b].strip() for a, b in spans]
                table[key] = dict(zip(columns, cells))
                index += 1
        elif rows[index].strip():
            path, _, value = rows[index].partition(": ")
            lines[path] = value
        index += 1
    return lines, tables


def leaves(value, path=()):
    """``(key path, value)`` for every leaf of a document: a scalar, a
    list of scalars, or an empty collection."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list)
             and all(isinstance(item, dict) for item in value) else ())
    found = [leaf for key, item in items for leaf in leaves(item, path + (str(key),))]
    return found if value and found else [(path, value)]


def assert_every_leaf_printed(document, text):
    lines, tables = printed(text)
    for path, value in leaves(document):
        key = ".".join(path)
        # a table headed by the path above the row: (label, row, column)
        table = tables.get(".".join(path[:-2]), {}) if len(path) > 2 else {}
        cell = lines[key] if key in lines else table.get(path[-2], {}).get(
            path[-1])
        assert cell == format_cell(value), (path, value, cell)


@pytest.mark.parametrize(
    "path", sorted(REPO.glob("BENCH_*.json")), ids=lambda path: path.stem)
def test_every_committed_document_prints_every_leaf(scaffold, path):
    document = json.loads(path.read_text())
    assert_every_leaf_printed(document, scaffold.format_document(document))


def test_rows_as_mapping_and_list_with_none_and_bool_cells(scaffold):
    document = {
        "seed": 7,
        "loads": [40, 80],
        "fit": {"slope": 17.5},
        "by_p": {
            "2": {"seconds": 25.156, "lost": None,
                  "classes": {"read": {"p99": 0.25}}},
            "4": {"seconds": 12.8, "lost": False},
        },
        "arms": [{"arm": "off", "ok": True}, {"arm": "on", "hits": 3}],
    }
    text = scaffold.format_document(document)
    assert text == "\n".join([
        "seed: 7",
        "loads: [40, 80]",
        "fit.slope: 17.5",
        "",
        "by_p  seconds   lost",
        "----  -------  -----",
        "   2     25.2   None",
        "   4     12.8  False",
        "",
        "by_p.2.classes   p99",
        "--------------  ----",
        "          read  0.25",
        "",
        "arms  arm    ok  hits",
        "----  ---  ----  ----",
        "   0  off  True     -",
        "   1   on     -     3",
    ])
    assert_every_leaf_printed(document, text)
