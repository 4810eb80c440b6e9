"""Workload shape for open-loop traffic (S21): what each arrival does.

Three deterministic samplers compose into a request stream:

* :class:`ZipfCatalog` — file popularity.  Production file traffic is
  heavily skewed; rank-``r`` popularity ``1/r^skew`` over a fixed
  catalog of pre-built files reproduces that with two RNG draws.
* :class:`RequestMix` — traffic class.  Weighted choice over the five
  request classes the Bridge surface exposes: naive ``read``/``write``,
  ``meta`` (directory operations), ``tool`` (list-I/O batch jobs, the
  Get-Info-then-bulk-access shape of section 5 tools), and ``parallel``
  (parallel-open jobs with worker fan-out).
* :func:`sample_request` — the per-arrival descriptor.  All randomness
  is drawn *at arrival time* from named simulator streams, never inside
  the executing client process, so the request sequence is a pure
  function of the seed no matter how execution interleaves.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: The request classes the generator knows how to issue.
CLASSES = ("read", "write", "meta", "tool", "parallel")

#: Default class weights: reads dominate, metadata is chatty, heavy
#: batch/parallel jobs are rare but large — the mix that makes fairness
#: interesting (a few tool jobs can monopolize a FIFO server).
DEFAULT_MIX: Dict[str, float] = {
    "read": 0.58, "write": 0.22, "meta": 0.10, "tool": 0.06, "parallel": 0.04,
}

#: Contiguous blocks one ``tool`` arrival list-reads.
TOOL_SPAN = 6


class ZipfCatalog:
    """Zipf-popularity sampling over a fixed list of file names.

    Rank 0 (the first name) is the hottest.  Sampling is a binary search
    over the precomputed CDF — O(log n) per draw, no floats accumulated
    at sample time, so identical seeds give identical streams.
    """

    __slots__ = ("names", "blocks_per_file", "skew", "_cdf")

    def __init__(self, names: Sequence[str], blocks_per_file: int,
                 skew: float = 1.1) -> None:
        if not names:
            raise ValueError("catalog needs at least one file")
        if blocks_per_file < 1:
            raise ValueError("files need at least one block")
        if skew <= 0:
            raise ValueError(f"skew must be positive, got {skew}")
        self.names = list(names)
        self.blocks_per_file = blocks_per_file
        self.skew = skew
        weights = [1.0 / (rank + 1) ** skew for rank in range(len(self.names))]
        total = sum(weights)
        cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against float round-off at the top
        self._cdf = cdf

    def sample(self, rng) -> str:
        return self.names[bisect_left(self._cdf, rng.random())]

class RequestMix:
    """Weighted choice over traffic classes."""

    __slots__ = ("weights", "_classes", "_cdf")

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        chosen = dict(DEFAULT_MIX if weights is None else weights)
        unknown = sorted(set(chosen) - set(CLASSES))
        if unknown:
            raise ValueError(f"unknown traffic classes: {unknown}")
        total = sum(chosen.values())
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        self.weights = chosen
        self._classes = [cls for cls in CLASSES if chosen.get(cls, 0) > 0]
        cdf: List[float] = []
        acc = 0.0
        for cls in self._classes:
            acc += chosen[cls] / total
            cdf.append(acc)
        cdf[-1] = 1.0
        self._cdf = cdf

    def sample(self, rng) -> str:
        return self._classes[bisect_left(self._cdf, rng.random())]


@dataclass
class TrafficRequest:
    """Everything one in-sim client needs to execute one arrival.

    Sampled up front (see module docstring) — the executor makes no
    random draws of its own.
    """

    seq: int
    cls: str
    name: str
    block: int = 0
    #: The :data:`TOOL_SPAN` blocks a ``tool`` arrival list-reads
    #: (``None`` for the other classes).
    blocks: Optional[List[int]] = None


def sample_request(seq: int, catalog: ZipfCatalog, mix: RequestMix,
                   rng) -> TrafficRequest:
    """Draw one arrival's complete descriptor from ``rng``."""
    cls = mix.sample(rng)
    name = catalog.sample(rng)
    blocks_per_file = catalog.blocks_per_file
    block = rng.randrange(blocks_per_file)
    blocks: Optional[List[int]] = None
    if cls == "tool":
        span = min(TOOL_SPAN, blocks_per_file)
        start = rng.randrange(blocks_per_file - span + 1)
        blocks = list(range(start, start + span))
    return TrafficRequest(seq=seq, cls=cls, name=name, block=block,
                          blocks=blocks)
