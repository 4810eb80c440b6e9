"""The parallel merge-sort tool (paper section 5.2)."""

from repro.tools.sort.analysis import SortCostModel
from repro.tools.sort.localsort import LocalSorter, LocalSortReport
from repro.tools.sort.merge import MergeStats, PairMerge, Token
from repro.tools.sort.records import key_of, make_record
from repro.tools.sort.tool import PassStats, SortResult, SortTool

__all__ = [
    "LocalSortReport",
    "LocalSorter",
    "MergeStats",
    "PairMerge",
    "PassStats",
    "SortCostModel",
    "SortResult",
    "SortTool",
    "Token",
    "key_of",
    "make_record",
]
