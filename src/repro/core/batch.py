"""S23 batched-metadata result types.

The batched ops (``mopen`` / ``mstat`` / ``mcreate`` / ``mdelete``)
return one :class:`NameOutcome` per requested name, in request order —
success carries the op's value (an ``OpenResult``, a :class:`FileStat`,
a file id, freed blocks), failure carries the application exception that
the singleton op would have raised.  One bad name never fails the batch;
this mirrors ``op_list_read``'s per-call error annotation at the
name granularity.

:class:`FileStat` is the directory-only metadata probe backing ``stat``
and ``mstat``: everything the Bridge Server knows about a file without
touching the LFS level.  Sizes are as of the last open/write through
the server — Open is "interpreted as a hint" (section 4.1), so a stat
is the cheap hint-refresh a metadata sweep wants when probing
thousands of names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

#: Bucket upper bounds for the ``bridge.batch.names`` histogram: batch
#: sizes are counts, not latencies, so the S19 default (seconds-oriented)
#: bounds would put every batch in the first bucket.
BATCH_SIZE_BOUNDS: Tuple[int, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
)


@dataclass
class FileStat:
    """Directory-resident metadata of one Bridge file."""

    name: str
    file_id: int
    width: int
    start: int
    total_blocks: int
    disordered: bool


@dataclass
class NameOutcome:
    """Per-name result of a batched metadata op: value xor error."""

    name: str
    value: Any = None
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self):
        """The value, re-raising the per-name error like the singleton
        op would have (for callers that do want fail-fast semantics)."""
        if self.error is not None:
            raise self.error
        return self.value
