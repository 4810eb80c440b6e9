"""Smoke tests: every example script and the reproduction driver must run
to completion as real subprocesses (the same way a user would run them)."""

import pathlib
import subprocess
import sys

import pytest

from tests.harness.test_bench_scaffold import printed

REPO = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = REPO / "examples"


def run_script(path, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO,
    )
    assert result.returncode == 0, (
        f"{path.name} failed:\n{result.stdout}\n{result.stderr}"
    )
    return result.stdout


def test_quickstart_example():
    out = run_script(EXAMPLES / "quickstart.py")
    assert "[naive view]" in out
    assert "[parallel-open view]" in out
    assert "[tool view]" in out


def test_copy_speedup_example():
    out = run_script(EXAMPLES / "copy_speedup.py", "256")
    assert "speedup" in out
    assert "Table 3" in out


def test_external_sort_example():
    out = run_script(EXAMPLES / "external_sort.py", "128", "4")
    assert "verified: output is the sorted permutation" in out
    assert "local sort" in out


def test_parallel_grep_example():
    out = run_script(EXAMPLES / "parallel_grep.py", "96")
    assert "tool advantage" in out
    assert "Ethernet" in out


def test_fault_injection_example():
    out = run_script(EXAMPLES / "fault_injection.py")
    assert "LOST" in out
    assert "recovered" in out


def test_disordered_files_example():
    out = run_script(EXAMPLES / "disordered_files.py")
    assert "verified: contents and order preserved" in out


def test_observability_example():
    out = run_script(EXAMPLES / "observability.py")
    assert "call.seq_read [client]" in out
    assert "partition total" in out
    assert "disk busy fractions" in out
    assert "Perfetto" in out
    trace = REPO / "trace_observability.json"
    assert trace.exists()
    trace.unlink()  # keep the repo clean


def test_traffic_example():
    out = run_script(EXAMPLES / "traffic.py", "1.0")
    assert "latency vs offered load" in out
    assert "fair" in out
    assert "sheds excess arrivals" in out


def test_reproduction_script_quick():
    out = run_script(REPO / "scripts" / "run_reproduction.py", "--quick",
                     timeout=400)
    for name in ("table2", "table3", "table4"):
        assert f"{'=' * 72}\n{name}\n{'=' * 72}\n" in out
    _lines, tables = printed(out)
    survival = tables["survival"]
    assert list(survival) == ["4", "8", "16"]
    assert all(row["mirrored_recovered"] == "True"
               for row in survival.values()), survival
