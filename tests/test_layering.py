"""One-way imports: a package may import its own layer and anything below.

Function-level (lazy) imports count — a deferred upward import is still
an upward dependency, it only hides the cycle from the interpreter.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Bottom to top.  Root modules (config, errors, _version) sit below
#: everything; ``repro/__init__.py`` is the facade above everything.
LAYERS = [
    {"config", "errors", "_version"},
    {"sim", "obs"},
    {"machine", "storage"},
    {"efs"},
    {"core"},
    {"collective", "elastic", "faults", "rebalance", "redundancy", "tools",
     "traffic"},
    {"workloads", "analysis", "baselines"},
    {"harness"},
    {"__init__"},
]
RANK = {package: rank for rank, layer in enumerate(LAYERS) for package in layer}


def imported_packages(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1], node.lineno


def test_every_package_has_a_layer():
    found = {path.name if path.is_dir() else path.stem
             for path in SRC.iterdir()
             if path.suffix == ".py" or (path / "__init__.py").exists()}
    assert found == set(RANK)


def test_no_upward_imports():
    upward = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        owner = relative.parts[0] if len(relative.parts) > 1 else path.stem
        for package, lineno in imported_packages(ast.parse(path.read_text())):
            if RANK[package] > RANK[owner]:
                upward.append(f"{relative}:{lineno} imports repro.{package}")
    assert not upward, "\n".join(upward)


def test_nothing_probes_for_a_fabric_by_attribute():
    """"Port or fabric?" is answered once, by type, in
    ``repro.core.partitioned.client_for`` — never by asking an object
    whether it happens to have ``port_for`` or ``ports``."""
    probes = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in ("port_for", "ports")):
                probes.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not probes, "\n".join(probes)


def test_the_paper_system_never_loads_hashlib():
    """Only the consistent-hash ring hashes; the paper's machine (one
    server, modulo routing) must not pay OpenSSL's 3.7 MiB for it."""
    script = (
        "import sys\n"
        "from repro.harness import BridgeSystem, SystemSpec\n"
        "system = BridgeSystem(SystemSpec.preset('paper', lfs_count=4))\n"
        "client = system.naive_client()\n"
        "def stream():\n"
        "    yield from client.create('f')\n"
        "    yield from client.write_all('f', [b'x' * 64] * 12)\n"
        "    return (yield from client.read_all('f'))\n"
        "assert len(system.run(stream())) == 12\n"
        "assert 'hashlib' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
