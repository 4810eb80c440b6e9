"""EFS: the Elementary File System — Bridge's per-node local file system.

An adaptation of the Cronus EFS (BBN), per paper section 4.3: stateless,
flat numeric namespace, doubly linked circular block lists, per-request
disk-address hints, and a block cache with full-track buffering.
"""

from repro.efs.cache import BlockCache
from repro.efs.client import EFSClient
from repro.efs.directory import Directory, DirectoryEntry
from repro.efs.freelist import FreeList
from repro.efs.fsck import FsckReport, check_efs, check_system
from repro.efs.layout import (
    NULL_ADDR,
    BridgeHeader,
    EFSHeader,
    pack_block,
    unpack_block,
    unpack_header,
)
from repro.efs.messages import FileInfo, ReadResult, WriteResult
from repro.efs.server import EFSServer

__all__ = [
    "BlockCache",
    "BridgeHeader",
    "Directory",
    "DirectoryEntry",
    "EFSClient",
    "EFSHeader",
    "EFSServer",
    "FileInfo",
    "FreeList",
    "FsckReport",
    "check_efs",
    "check_system",
    "NULL_ADDR",
    "ReadResult",
    "WriteResult",
    "pack_block",
    "unpack_block",
    "unpack_header",
]
