"""Deterministic named random streams.

Every stochastic component of the simulation (a storage array's rotational
phases, workload key generation, fault injection) draws from its own named
stream so that adding randomness to one component never perturbs another —
a standard requirement for reproducible discrete-event experiments.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict


class RandomStreams:
    """A family of independent :class:`random.Random` streams keyed by name.

    Streams are derived deterministically from ``(seed, name)`` using a
    CRC of the name, so the same seed always yields the same sequence per
    stream regardless of creation order.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created on first use."""
        stream = self._streams.get(name)
        if stream is None:
            derived = (self.seed * 0x9E3779B1 + zlib.crc32(name.encode())) % (2**63)
            stream = random.Random(derived)
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
