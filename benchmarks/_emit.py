"""Machine-readable bench output: ``BENCH_<name>.json`` at the repo root.

Every bench prints and writes one document, a JSON file later tooling
can diff: ``write_bench_json("views", {...})`` writes
``BENCH_views.json`` with a ``{"bench": "views", ...payload}`` envelope
(the :class:`_bench.Bench` scaffold prints the payload and makes the
call).

Payloads should contain only deterministic simulation results (simulated
seconds, message counts, model constants) — never host wall-clock — so
the committed files are stable across machines and reruns.

Importable both ways the benches are run: ``pytest benchmarks/`` inserts
this directory on ``sys.path`` (no ``__init__.py`` here, by design) and
script mode (``python benchmarks/bench_....py``) does the same, so a
plain ``from _emit import write_bench_json`` always resolves.
"""

import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_bench_json(name: str, payload: dict) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` and return its path.

    ``allow_nan=False`` keeps the files strict JSON; non-string dict
    keys (processor counts, widths) must be stringified by the caller.
    """
    document = {"bench": name}
    document.update(payload)
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(document, indent=2, allow_nan=False) + "\n"
    )
    return path
