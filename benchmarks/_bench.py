"""The bench scaffold: every ``bench_*.py`` is its sweep, its assertions
and its table, declared as one :class:`Bench` record.

The record supplies what the scripts used to repeat — the pytest entry
point, the script entry point with ``--quick``, the printed table and
the ``BENCH_<name>.json`` write::

    BENCH = Bench("views", sweep, check, render, payload)
    test_views_ablation = BENCH.test()

    if __name__ == "__main__":
        BENCH.main()

``sweep(quick)`` runs the experiment (``quick`` picks the CI-sized
configuration), ``check(results)`` asserts the paper's qualitative shape,
``render(results)`` returns the table and ``payload(results)`` the JSON
document — deterministic simulated values only, per ``_emit.py``'s rule;
a bench that measures the host clock passes no ``payload``.  Both entry
points run them in that order, so a sweep that fails its assertions
never overwrites a committed JSON; ``--quick`` writes nothing.

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

#: The processor counts of Tables 3 and 4.
PAPER_PS = (2, 4, 8, 16, 32)


def paper_ps(quick: bool) -> tuple:
    """The processor sweep: the paper's range, or p <= 8 in quick mode."""
    return PAPER_PS[:3] if quick else PAPER_PS


def fields(record, *names) -> dict:
    """``{name: record.name}`` in the order given: the part of a payload
    that copies a result record's fields and properties unrenamed."""
    return {name: getattr(record, name) for name in names}


@dataclasses.dataclass(frozen=True)
class Bench:
    """One reproduction bench: ``sweep -> check -> render -> payload``."""

    name: str
    sweep: Callable[[bool], Any]
    check: Callable[[Any], None]
    render: Callable[[Any], str]
    payload: Optional[Callable[[Any], dict]] = None

    def run(self, quick: bool = False) -> None:
        """Sweep, assert, print the table and — unless ``quick`` — write
        the JSON."""
        results = self.sweep(quick)
        self.check(results)
        print(f"\n{'=' * 72}\n{self.name}\n{'=' * 72}\n{self.render(results)}")
        if self.payload is not None and not quick:
            write_bench_json(self.name, self.payload(results))

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
