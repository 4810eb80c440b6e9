"""Exception hierarchy for the Bridge reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch one base class.  The hierarchy mirrors the layering of the
system: simulation-kernel errors, storage errors, local-file-system (EFS)
errors, and Bridge-level errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class ProcessError(SimulationError):
    """A simulated process terminated with an unhandled exception.

    The original exception is available as ``__cause__``; the failing
    process name is stored in :attr:`process_name`.
    """

    def __init__(self, process_name: str, message: str = "") -> None:
        self.process_name = process_name
        detail = message or "simulated process failed"
        super().__init__(f"{detail} (process {process_name!r})")


class DeadlockError(SimulationError):
    """The event queue drained while non-daemon processes were still blocked."""

    def __init__(self, blocked: list) -> None:
        self.blocked = list(blocked)
        names = ", ".join(sorted(str(p) for p in self.blocked))
        super().__init__(f"deadlock: event queue empty, blocked processes: {names}")


class NotAProcessError(SimulationError):
    """An operation requiring a process context ran outside of one."""


class InvalidYieldError(SimulationError):
    """A simulated process yielded an object the kernel cannot wait on."""


class SecondReceiverError(SimulationError):
    """A process waited on a mailbox another process is already parked on.

    A :class:`~repro.sim.Mailbox` has one receiver slot; two readers of
    one mailbox would need an order between them that no part of the
    machine model defines."""

    def __init__(self, mailbox, process) -> None:
        self.mailbox = mailbox
        self.process = process
        super().__init__(
            f"mailbox {mailbox.name!r} already has a parked receiver "
            f"({mailbox._waiter.name!r}); {process.name!r} cannot wait on it too"
        )


# ---------------------------------------------------------------------------
# Machine model
# ---------------------------------------------------------------------------


class MachineError(ReproError):
    """Base class for machine/topology configuration errors."""


class NoSuchNodeError(MachineError):
    """A message or spawn targeted a node id that does not exist."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for simulated-device errors."""


class BadBlockAddressError(StorageError):
    """A block address fell outside the device's capacity."""


class DeviceFailedError(StorageError):
    """The device has been failed by fault injection and cannot serve I/O."""


# ---------------------------------------------------------------------------
# EFS (local file system)
# ---------------------------------------------------------------------------


class EFSError(ReproError):
    """Base class for local-file-system errors."""


class EFSFileNotFoundError(EFSError):
    """The requested EFS file number is not present in the directory."""


class EFSFileExistsError(EFSError):
    """Attempted to create an EFS file number that already exists."""


class EFSBlockNotFoundError(EFSError):
    """The requested block number is beyond the end of the EFS file."""


class EFSOutOfSpaceError(EFSError):
    """The free list is exhausted; no block can be allocated."""


class EFSCorruptionError(EFSError):
    """An on-disk structure failed a consistency check (bad link, bad header)."""


# ---------------------------------------------------------------------------
# Bridge (parallel file system)
# ---------------------------------------------------------------------------


class BridgeError(ReproError):
    """Base class for Bridge-server and Bridge-client errors."""


class BridgeFileNotFoundError(BridgeError):
    """The named interleaved file is not in the Bridge directory."""


class BridgeFileExistsError(BridgeError):
    """Attempted to create an interleaved file name that already exists."""


class BridgeBadRequestError(BridgeError):
    """A malformed or unsupported command reached the Bridge Server."""


class BridgeJobError(BridgeError):
    """A parallel-open job was misused (unknown job, wrong worker count...)."""


class BridgeAdmissionError(BridgeError):
    """Base class for requests refused by an admission policy (S21).

    These are *load-management* outcomes, not failures: the file system
    is healthy but chose not to serve this request right now.  Clients
    under open-loop traffic treat them as first-class results.
    """


class BridgeThrottledError(BridgeAdmissionError):
    """Rejected by a token-bucket rate limit; retry-after semantics."""


class BridgeOverloadError(BridgeAdmissionError):
    """Shed by a bounded admission queue past its depth threshold."""


# ---------------------------------------------------------------------------
# Tools
# ---------------------------------------------------------------------------


class ToolError(ReproError):
    """Base class for errors raised by Bridge tools."""


class SortProtocolError(ToolError):
    """The token-passing merge protocol reached an inconsistent state."""
