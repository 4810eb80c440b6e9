"""Bridge: a high-performance file system for parallel processors.

A complete reproduction of Dibble, Ellis & Scott (ICDCS 1988) as a Python
library: the Bridge Server with interleaved files and three user views,
the EFS local file systems, a discrete-event simulated multiprocessor
with per-node disks, the copy/filter/grep/sort tool suite, the baselines
the paper argues against (striping, chunking, hashing, storage arrays),
and a benchmark harness regenerating every table and figure.

Quickstart::

    from repro import BridgeSystem

    system = BridgeSystem(8)          # 8 LFS nodes with 15 ms disks
    client = system.naive_client()

    def app():
        yield from client.create("demo")
        yield from client.seq_write("demo", b"hello interleaved world")
        yield from client.open("demo")
        block, data = yield from client.seq_read("demo")
        return data

    print(system.run(app()))

See README.md for the architecture overview and DESIGN.md for the full
system inventory and experiment index.
"""

from repro._version import __version__
from repro.collective import TwoPhaseIO
from repro.config import (
    BLOCK_SIZE,
    DATA_BYTES_PER_BLOCK,
    DEFAULT_CONFIG,
    CpuCosts,
    MessageCosts,
    SystemConfig,
)
from repro.core import (
    BridgeClient,
    BridgeServer,
    InterleaveMap,
    JobController,
    ParallelWorker,
)
from repro.harness import BridgeSystem, SystemSpec, paper_system
from repro.tools import (
    CopyTool,
    EncryptTool,
    GrepTool,
    LineLexTool,
    SortTool,
    TranslateTool,
    WordCountTool,
)

__all__ = [
    "BLOCK_SIZE",
    "BridgeClient",
    "BridgeServer",
    "BridgeSystem",
    "CopyTool",
    "CpuCosts",
    "DATA_BYTES_PER_BLOCK",
    "DEFAULT_CONFIG",
    "EncryptTool",
    "GrepTool",
    "InterleaveMap",
    "TwoPhaseIO",
    "JobController",
    "LineLexTool",
    "MessageCosts",
    "ParallelWorker",
    "SortTool",
    "SystemConfig",
    "SystemSpec",
    "TranslateTool",
    "WordCountTool",
    "__version__",
    "paper_system",
]
