"""The ledger's whole view of ``repro``: the one module that imports it.

Every other file in this directory reaches the system under test through
the names below, so the public surface a later refactor must keep alive
is visible in one place (``test_ledger.py`` enforces the rule).

The benchmark is started as ``python3 benchmarks/ledger/run.py`` from a
checkout root with no ``PYTHONPATH``, so ``src/`` is put on the path
here.  In a directory that holds only the benchmark the import fails,
which is the non-zero exit the benchmark contract asks for.
"""

import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis.models import (  # noqa: E402
    batched_rpc_count,
    naive_read_seconds_per_block,
)
from repro.config import DEFAULT_CONFIG  # noqa: E402
from repro.efs.fsck import check_system  # noqa: E402
from repro.harness import BridgeSystem, paper_system  # noqa: E402
from repro.harness.experiments import fabric_safety_oracle  # noqa: E402
from repro.machine import Client, Machine, Server  # noqa: E402
from repro.obs import attribute_ops  # noqa: E402
from repro.sim import Mailbox, Simulator, Timeout  # noqa: E402
from repro.storage import FixedLatency  # noqa: E402
from repro.tools import SortTool  # noqa: E402
from repro.traffic import (  # noqa: E402
    RequestMix,
    SLORecorder,
    TrafficGenerator,
    ZipfCatalog,
)
from repro.workloads import (  # noqa: E402
    build_file,
    record_chunks,
    uniform_keys,
)

__all__ = [
    "BridgeSystem", "Client", "DEFAULT_CONFIG", "FixedLatency", "Machine",
    "Mailbox", "RequestMix", "SLORecorder", "Server", "Simulator",
    "SortTool", "Timeout",
    "TrafficGenerator", "ZipfCatalog", "attribute_ops", "batched_rpc_count",
    "build_file", "check_system", "fabric_safety_oracle",
    "naive_read_seconds_per_block", "paper_system", "record_chunks",
    "uniform_keys",
]
