"""Analysis: paper models, derived metrics, table formatting.

The package re-exports what benches, examples and tests import from
``repro.analysis``; everything else is imported from its module.
"""

from repro.analysis.metrics import (
    efficiency,
    is_superlinear,
    scaling_table,
    speedup,
)
from repro.analysis.models import (
    PAPER_COPY_PEAK_RECORDS_PER_SECOND,
    PAPER_FILE_BLOCKS,
    PAPER_SORT_PEAK_RECORDS_PER_SECOND,
    PAPER_TABLE3_COPY_SECONDS,
    PAPER_TABLE4_SORT_MINUTES,
    batched_rpc_count,
    fit_line,
    md1_wait_seconds,
    metadata_partition_buckets,
    mm1_wait_seconds,
    shape_ratio,
    speedup_series,
    table2_create_ms,
    table2_delete_ms,
    table2_open_ms,
    table2_read_ms,
    table2_write_ms,
)
from repro.analysis.tables import format_table

__all__ = [
    "PAPER_COPY_PEAK_RECORDS_PER_SECOND",
    "PAPER_FILE_BLOCKS",
    "PAPER_SORT_PEAK_RECORDS_PER_SECOND",
    "PAPER_TABLE3_COPY_SECONDS",
    "PAPER_TABLE4_SORT_MINUTES",
    "batched_rpc_count",
    "efficiency",
    "fit_line",
    "format_table",
    "is_superlinear",
    "md1_wait_seconds",
    "metadata_partition_buckets",
    "mm1_wait_seconds",
    "scaling_table",
    "shape_ratio",
    "speedup",
    "speedup_series",
    "table2_create_ms",
    "table2_delete_ms",
    "table2_open_ms",
    "table2_read_ms",
    "table2_write_ms",
]
