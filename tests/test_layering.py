"""One-way imports: a package may import its own layer and anything below.

Function-level (lazy) imports count — a deferred upward import is still
an upward dependency, it only hides the cycle from the interpreter.

:data:`LAYERS` is also the architecture map: each row names its tier,
and DESIGN.md's "Architecture" table is checked against it.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

#: Bottom to top, ``(tier, packages)``.  Root modules (config, errors,
#: _version) sit below everything; the *kernel* is the paper's three
#: layers (devices, LFS, Bridge Server) on the simulated machine;
#: *services* use kernel interfaces and nothing above; *studies* are the
#: comparison systems, workloads and models; ``repro/__init__.py`` is the
#: facade above everything.
LAYERS = [
    ("root", {"config", "errors", "_version"}),
    ("kernel", {"sim", "obs"}),
    ("kernel", {"machine", "storage"}),
    ("kernel", {"efs"}),
    ("kernel", {"core"}),
    ("services", {"collective", "elastic", "redundancy", "tools", "traffic"}),
    ("studies", {"workloads", "analysis", "baselines"}),
    ("harness", {"harness"}),
    ("facade", {"__init__"}),
]
RANK = {package: rank
        for rank, (_tier, layer) in enumerate(LAYERS) for package in layer}

#: The drivers tier: modules a kernel or service interface selects by
#: name.  ``registry -> kinds``; a new kind is a new row entry here and
#: in DESIGN.md, never a new package.
DRIVERS = {
    "repro.storage.DRIVER_KINDS": {"ram", "hostfs", "object"},
    "repro.storage.scheduler.SCHEDULERS": {"fcfs", "sstf", "elevator"},
    "repro.machine.NETWORK_KINDS": {"butterfly", "ethernet"},
    "repro.elastic.RING_KINDS": {"modulo", "consistent"},
    "repro.redundancy.SCHEMES": {"none", "mirror", "parity"},
}

#: Function-level imports that stay, each with its reason.
LAZY_IMPORTS = {
    # True cycle: core.partitioned -> core.client -> core.parallel.
    ("core/parallel.py", "repro.core.partitioned"),
}


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno


def imported_packages(tree):
    for module, lineno in imported_modules(tree):
        parts = module.split(".")
        if parts[0] == "repro" and len(parts) > 1:
            yield parts[1], lineno


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


def test_every_function_level_import_is_on_the_allow_list():
    lazy = {(str(path.relative_to(SRC)), module)
            for path in sorted(SRC.rglob("*.py"))
            for function in ast.walk(ast.parse(path.read_text()))
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for module, _lineno in imported_modules(function)}
    assert lazy == LAZY_IMPORTS


def test_driver_registries_hold_the_documented_kinds():
    for registry, kinds in DRIVERS.items():
        module, name = registry.rsplit(".", 1)
        assert set(getattr(importlib.import_module(module), name)) == kinds


def test_design_architecture_table_quotes_the_layers():
    design = (REPO / "DESIGN.md").read_text()
    start = design.index("## 4. Architecture")
    section = design[start:design.index("\n### ", start)]
    cells = [[cell.strip() for cell in line.strip("|").split("|")]
             for line in section.splitlines() if line.startswith("| ")]
    rows = [(row[0], set(row[1].replace("`", "").split(", ")))
            for row in cells if row[0] in {tier for tier, _ in LAYERS}]
    assert rows == LAYERS
    drivers = {row[1].strip("`"): set(row[2].replace("`", "").split(", "))
               for row in cells if row[0] == "drivers"}
    assert drivers == DRIVERS


def test_nothing_probes_for_a_fabric_by_attribute():
    """"Port or fabric?" is answered once, by type, in
    ``repro.core.partitioned.client_for`` — never by asking an object
    whether it happens to have ``port_for`` or ``ports``.  Likewise a
    ``BridgeSystem`` always has ``redundancy`` and a ``Ring`` always has
    ``kind``: read them."""
    probes = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in ("port_for", "ports",
                                               "redundancy", "kind")):
                probes.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not probes, "\n".join(probes)


#: One fresh interpreter per product configuration: the paper's machine
#: (one server, modulo routing), an elastic fabric (consistent ring) that
#: runs a live resize, and the rebalancer acting on a skewed mix.
PRODUCT_CONFIGURATIONS = {
    "paper": (
        "from repro.harness import BridgeSystem, SystemSpec\n"
        "system = BridgeSystem(SystemSpec.preset('paper', lfs_count=4))\n"
        "client = system.naive_client()\n"
        "def stream():\n"
        "    yield from client.create('f')\n"
        "    yield from client.write_all('f', [b'x' * 64] * 12)\n"
        "    return (yield from client.read_all('f'))\n"
        "assert len(system.run(stream())) == 12\n"
    ),
    "elastic": (
        "from repro.harness import BridgeSystem\n"
        "system = BridgeSystem(4, bridge_server_count=2, elastic=4)\n"
        "client = system.naive_client()\n"
        "names = [f'f{i}' for i in range(8)]\n"
        "def resize():\n"
        "    for name in names:\n"
        "        yield from client.create(name)\n"
        "        yield from client.write_all(name, [name.encode()] * 2)\n"
        "    report = yield from system.resize_fabric(4)\n"
        "    for name in names:\n"
        "        yield from client.read_all(name)\n"
        "    return report\n"
        "assert system.run(resize()).moved > 0\n"
    ),
    "rebalance": (
        "from repro.harness.experiments import run_rebalance_experiment\n"
        "row = run_rebalance_experiment(rate=90.0, duration=6.0, servers=4,\n"
        "                               files=24, blocks=6, skew=1.2)\n"
        "assert row['moves'] > 0 and row['fsck_clean']\n"
    ),
}


@pytest.mark.parametrize("configuration", sorted(PRODUCT_CONFIGURATIONS))
def test_no_product_configuration_loads_openssl(configuration):
    """``hashlib`` loads ``_hashlib``, i.e. OpenSSL (3.6 MiB of RSS per
    process); the ring's blake2b comes from the builtin ``_blake2``, so
    no product process, routing by consistent hash or not, pays for it."""
    script = (
        PRODUCT_CONFIGURATIONS[configuration]
        + "import sys\n"
        "loaded = {'hashlib', '_hashlib'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
