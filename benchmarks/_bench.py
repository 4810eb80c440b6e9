"""The bench scaffold: every ``bench_*.py`` is its sweep, its assertions
and its payload, declared as one :class:`Bench` record, and every bench
prints and writes one document.

The record supplies what the scripts used to repeat — the pytest entry
point, the script entry point with ``--quick``, the printed document
and its ``BENCH_<name>.json`` write::

    BENCH = Bench("views", sweep, check, payload)
    test_views_ablation = BENCH.test()

    if __name__ == "__main__":
        BENCH.main()

``sweep(quick)`` runs the experiment (``quick`` picks the CI-sized
configuration), ``check(results)`` asserts the paper's qualitative shape
and ``payload(results)`` returns the document — deterministic simulated
values only, per ``_emit.py``'s rule.  :func:`format_document` prints
it; a bench that measures the host clock passes no ``payload`` and its
sweep's own flat dict is printed instead.  Both entry points run them
in that order, so a sweep that fails its assertions never overwrites a
committed JSON; ``--quick`` prints the document and writes nothing.

Importing this module puts ``src/`` on ``sys.path`` (as
``ledger/_api.py`` does), so ``python benchmarks/bench_x.py --quick``,
``python scripts/run_reproduction.py`` and ``python -m pytest
benchmarks`` all work from a bare checkout.
"""

import dataclasses
import importlib
import sys
from typing import Any, Callable, List, Optional

from _emit import REPO_ROOT, write_bench_json

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import format_cell, format_table  # noqa: E402

#: The processor counts of Tables 3 and 4.
PAPER_PS = (2, 4, 8, 16, 32)


def paper_ps(quick: bool) -> tuple:
    """The processor sweep: the paper's range, or p <= 8 in quick mode."""
    return PAPER_PS[:3] if quick else PAPER_PS


def fields(record, *names) -> dict:
    """``{name: record.name}`` in the order given: the part of a payload
    that copies a result record's fields and properties unrenamed."""
    return {name: getattr(record, name) for name in names}


def _is_rows(value) -> bool:
    """A non-empty mapping or list whose values are all dicts: one
    table, a row per key or element."""
    items = value.values() if isinstance(value, dict) else value
    return (isinstance(value, (dict, list)) and bool(value)
            and all(isinstance(item, dict) for item in items))


def _blocks(value, path: str) -> List[str]:
    """The printed blocks of one document value at ``path``."""
    if _is_rows(value):
        return _table(value, path)
    if isinstance(value, dict) and value:
        return [block for key, item in value.items()
                for block in _blocks(item, f"{path}.{key}")]
    return [f"{path}: {format_cell(value)}"]


def _table(rows, path: str) -> List[str]:
    """A table headed by ``path``: a row per key or element, its scalar
    fields (and lists of scalars) as columns, then each row's nested
    collections as more blocks under the row's own path."""
    columns, body, nested = {}, [], []
    keyed = rows.items() if isinstance(rows, dict) else enumerate(rows)
    for key, row in keyed:
        inner = {field: value for field, value in row.items()
                 if isinstance(value, dict) or _is_rows(value)}
        cells = {field: value for field, value in row.items()
                 if field not in inner}
        columns.update(dict.fromkeys(cells))
        if cells:
            body.append((key, cells))
        if inner:
            nested += _blocks(inner, f"{path}.{key}")
    if not body:
        return nested
    table = format_table(
        [path, *columns],
        [[key, *(cells.get(column, "-") for column in columns)]
         for key, cells in body],
    )
    return [table, *nested]


def format_document(document: dict) -> str:
    """A bench document as text: a ``path: value`` line per scalar (and
    list of scalars), one table per collection of rows, and a blank
    line on each side of a table."""
    blocks = [block for key, value in document.items()
              for block in _blocks(value, key)]
    text = blocks[0] if blocks else ""
    for before, block in zip(blocks, blocks[1:]):
        text += ("\n\n" if "\n" in before + block else "\n") + block
    return text


@dataclasses.dataclass(frozen=True)
class Bench:
    """One reproduction bench: ``sweep -> check -> payload``."""

    name: str
    sweep: Callable[[bool], Any]
    check: Callable[[Any], None]
    payload: Optional[Callable[[Any], dict]] = None

    def run(self, quick: bool = False) -> None:
        """Sweep, assert, print the document and — unless ``quick`` —
        write it."""
        results = self.sweep(quick)
        self.check(results)
        document = results if self.payload is None else self.payload(results)
        print(f"\n{'=' * 72}\n{self.name}\n{'=' * 72}\n"
              f"{format_document(document)}")
        if self.payload is not None and not quick:
            write_bench_json(self.name, document)

    def test(self):
        """The bench as a pytest test.  Simulation sweeps are
        deterministic, so one pytest-benchmark round records the real
        host cost without re-measuring wall-clock noise."""
        def test(benchmark):
            benchmark.pedantic(self.run, rounds=1, iterations=1)

        return test

    def main(self, argv=None) -> None:
        """The bench as a script: ``--quick`` is the CI smoke run."""
        quick = "--quick" in (sys.argv[1:] if argv is None else argv)
        self.run(quick=quick)
        print(f"{self.name}: all assertions passed"
              + (" (quick mode)" if quick else ""))


def load_benches() -> List[Bench]:
    """Every :class:`Bench` declared by a ``bench_*.py`` beside this
    file, in file order — the registry ``scripts/run_reproduction.py``
    loops over."""
    return [
        value
        for path in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
        for value in vars(importlib.import_module(path.stem)).values()
        if isinstance(value, Bench)
    ]
