"""Bridge core: the paper's primary contribution.

Interleaved-file addressing, the Bridge directory, the Bridge Server with
its three user views (naive, parallel-open, tool), and the parallel-job
machinery.
"""

from repro.core.addressing import InterleaveMap
from repro.core.batch import BATCH_SIZE_BOUNDS, FileStat, NameOutcome
from repro.core.cache import BridgeBlockCache
from repro.core.client import BridgeClient
from repro.core.directory import BridgeDirectory, BridgeFileEntry
from repro.core.disorder import ReorganizeResult, reorganize, scatter_quality
from repro.core.info import ConstituentInfo, LFSHandle, OpenResult, SystemInfo
from repro.core.parallel import (
    BlockDelivery,
    Deposit,
    JobController,
    JobInfo,
    ParallelWorker,
)
from repro.core.partitioned import (
    PartitionedBridge,
    PartitionedClient,
    client_for,
)
from repro.core.prefetch import Prefetcher, SequentialDetector
from repro.core.relay import RelayServer
from repro.core.server import BridgeServer

__all__ = [
    "BATCH_SIZE_BOUNDS",
    "BlockDelivery",
    "BridgeBlockCache",
    "BridgeClient",
    "BridgeDirectory",
    "BridgeFileEntry",
    "BridgeServer",
    "ConstituentInfo",
    "Deposit",
    "FileStat",
    "InterleaveMap",
    "JobController",
    "JobInfo",
    "LFSHandle",
    "NameOutcome",
    "PartitionedBridge",
    "PartitionedClient",
    "ReorganizeResult",
    "OpenResult",
    "ParallelWorker",
    "Prefetcher",
    "RelayServer",
    "SequentialDetector",
    "SystemInfo",
    "client_for",
    "reorganize",
    "scatter_quality",
]
