"""The ``ram`` driver: the paper's RAM-simulated block device.

One :class:`SimulatedDisk` is a DES process serving a queue of block
requests one at a time (a single arm).  Service time comes from a latency
model (fixed 15 ms in paper mode).  Block contents are real bytes held in
memory — exactly the paper's approach of simulating 64 MB of "disk" in the
Butterfly's RAM (section 4.4).

Since S25 this is the *reference driver* of the storage kernel: the
queueing, span-stamping, and fault machinery live in
:class:`~repro.storage.base.SingleArmBlockStore`, and this class only
binds them to an in-memory block dict.  Register-by-name construction
goes through :func:`repro.storage.drivers.make_driver` (``"ram"``).

Fault injection (section 6's Murphy's-law discussion) is supported via
:meth:`~repro.storage.base.BlockStoreABC.fail`: a failed disk errors
every subsequent request, which is what makes an interleaved file system
lose *every* file when any one device dies.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.storage.base import InMemoryBlocks, SingleArmBlockStore
from repro.storage.parameters import DiskParameters


class SimulatedDisk(InMemoryBlocks, SingleArmBlockStore):
    """A single-arm RAM-backed block device with pluggable latency and
    scheduling — the ``ram`` driver."""

    kind = "ram"

    def __init__(
        self,
        sim,
        params: DiskParameters,
        latency_model=None,
        scheduler=None,
        name: Optional[str] = None,
    ) -> None:
        self.blocks: Dict[int, bytes] = {}
        super().__init__(
            sim, params, latency_model, scheduler=scheduler, name=name,
        )
