"""Workload generators and file builders for experiments."""

from repro.workloads.acceptance import acceptance_driver
from repro.workloads.datagen import (
    pattern_chunks,
    record_chunks,
    text_chunks,
    uniform_keys,
)
from repro.workloads.traces import (
    hotspot_pattern,
    scatter_pattern,
    strided_pattern,
)
from repro.workloads.files import (
    build_file,
    build_record_file,
    read_file,
    read_to_eof,
    timed,
    write_then_stream,
)

__all__ = [
    "acceptance_driver",
    "build_file",
    "build_record_file",
    "pattern_chunks",
    "read_file",
    "read_to_eof",
    "record_chunks",
    "text_chunks",
    "timed",
    "uniform_keys",
    "write_then_stream",
    "hotspot_pattern",
    "scatter_pattern",
    "strided_pattern",
]
