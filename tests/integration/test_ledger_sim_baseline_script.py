"""``scripts/ledger_sim_baseline.py --write --workload NAME``: a declared
re-baseline rewrites the declared workloads' sections (``--workload``
repeats), and only if nothing else moved.  The ledger run itself is
stubbed; CI runs the real one."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parents[2]
          / "scripts" / "ledger_sim_baseline.py")


COMMITTED = {"cached_read": {"sim_s": 7.2, "failed": 0},
             "naive_stream": {"sim_s": 3.0, "failed": 0}}


@pytest.fixture
def run(tmp_path, monkeypatch):
    """``run(fresh, *argv) -> (exit code, baseline file's workloads)``
    against a scratch baseline holding :data:`COMMITTED`."""
    spec = importlib.util.spec_from_file_location("ledger_sim_baseline", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    path = tmp_path / "ledger_sim.json"
    path.write_text(json.dumps(
        {"run_args": list(script.RUN_ARGS), "workloads": COMMITTED}))

    def run(fresh, *argv):
        monkeypatch.setattr(script, "seed_determined", lambda: fresh)
        code = script.main([*argv, "--baseline", str(path)])
        return code, json.loads(path.read_text())["workloads"]

    return run


def test_declared_workload_is_the_only_section_rewritten(run, capsys):
    fresh = {"cached_read": {"sim_s": 6.0, "failed": 0},
             "naive_stream": {"sim_s": 3.0, "failed": 0}}
    assert run(fresh, "--check")[0] == 1
    assert "--write --workload" in capsys.readouterr().out
    code, written = run(fresh, "--write", "--workload", "cached_read")
    assert code == 0 and written == fresh
    assert run(fresh, "--check")[0] == 0


def test_drift_elsewhere_refuses_and_writes_nothing(run, capsys):
    fresh = {"cached_read": {"sim_s": 6.0, "failed": 0},
             "naive_stream": {"sim_s": 3.1, "failed": 0}}
    code, written = run(fresh, "--write", "--workload", "cached_read")
    assert code == 1 and written == COMMITTED
    out = capsys.readouterr().out
    assert "naive_stream" in out and "cached_read  " not in out
    code, written = run(fresh, "--write")  # plain --write: everything
    assert code == 0 and written == fresh


def test_two_declared_workloads_rewrite_together(run, capsys):
    fresh = {"cached_read": {"sim_s": 6.0, "failed": 0},
             "naive_stream": {"sim_s": 3.1, "failed": 0}}
    code, written = run(fresh, "--write", "--workload", "cached_read",
                        "--workload", "naive_stream")
    assert code == 0 and written == fresh
    moved = {**fresh, "traffic_mix": {"sim_s": 1.0, "failed": 0}}
    code, written = run(moved, "--write", "--workload", "cached_read",
                        "--workload", "naive_stream")
    assert code == 1 and written == fresh
    assert "traffic_mix" in capsys.readouterr().out


def test_workload_must_exist_and_needs_write(run):
    fresh = dict(COMMITTED)
    code, written = run(fresh, "--write", "--workload", "nope")
    assert code == 1 and written == COMMITTED
    code, written = run(fresh, "--write", "--workload", "cached_read",
                        "--workload", "nope")
    assert code == 1 and written == COMMITTED
    with pytest.raises(SystemExit):
        run(fresh, "--check", "--workload", "cached_read")
