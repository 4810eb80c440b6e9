"""Bridge tools: applications that become part of the file system."""

from repro.tools.base import SCRATCH_FILE_BASE, Tool, tree_spawn
from repro.tools.copy import CopyResult, CopyTool, WorkerReport
from repro.tools.filters import EncryptTool, LineLexTool, TranslateTool, rot13_table
from repro.tools.grep import GrepResult, GrepTool, Match
from repro.tools.sort import SortResult, SortTool
from repro.tools.wc import CountResult, WordCountTool

__all__ = [
    "SCRATCH_FILE_BASE",
    "CopyResult",
    "CopyTool",
    "CountResult",
    "EncryptTool",
    "GrepResult",
    "GrepTool",
    "LineLexTool",
    "Match",
    "SortResult",
    "SortTool",
    "Tool",
    "TranslateTool",
    "WordCountTool",
    "WorkerReport",
    "rot13_table",
    "tree_spawn",
]
