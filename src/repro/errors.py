"""Exception hierarchy for the SSD-Insider reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class NandError(ReproError):
    """Base class for NAND flash simulation errors."""


class ProgramError(NandError):
    """A page was programmed out of order or twice without an erase."""


class EraseError(NandError):
    """A block erase violated the chip's rules."""

class ReadError(NandError):
    """A page read targeted an unwritten or out-of-range page."""


class ProgramFailError(NandError):
    """A page program failed its verify step (injected media fault).

    The page is consumed but holds garbage; firmware must remap the write
    to another block and retire the failing one.
    """

    def __init__(self, message: str, ppa: int = -1, landed: int = 0) -> None:
        super().__init__(message)
        #: Flat physical page address of the burned page.
        self.ppa = ppa
        #: Pages of the same bulk program that landed before this one
        #: (at the ``landed`` PPAs just below :attr:`ppa`).
        self.landed = landed


class UncorrectableReadError(ReadError):
    """A page read stayed corrupt after exhausting the ECC retry budget."""

    def __init__(self, message: str, ppa: int = -1, retries: int = 0) -> None:
        super().__init__(message)
        #: Flat physical page address that could not be read.
        self.ppa = ppa
        #: Read retries spent before giving up.
        self.retries = retries


class AddressError(NandError):
    """A physical or logical address was out of range."""


class FtlError(ReproError):
    """Base class for flash-translation-layer errors."""


class OutOfSpaceError(FtlError):
    """The FTL ran out of free pages even after garbage collection."""


class ExhaustedRetriesError(FtlError):
    """Consecutive program failures exhausted the remap budget.

    Raised when every replacement block the FTL tried also failed to
    program — the media is dying faster than remapping can route around.
    The device reacts by locking down (graceful degradation)."""

    def __init__(self, message: str, written: int = 0) -> None:
        super().__init__(message)
        #: Blocks of the failing write span that were written before it
        #: gave up.
        self.written = written


class UnmappedReadError(FtlError):
    """A logical read targeted an LBA that was never written."""


class DeviceError(ReproError):
    """Base class for SSD device-level errors."""


class RecoveryError(DeviceError):
    """The rollback procedure could not complete."""


class DetectorError(ReproError):
    """Base class for detection-pipeline errors."""


class NotFittedError(DetectorError):
    """The decision tree was used before being trained."""


class TrainingError(DetectorError):
    """The training data was unusable (e.g. empty or single-class when a
    split was required)."""


class FilesystemError(ReproError):
    """Base class for SimpleFS errors."""


class FsFullError(FilesystemError):
    """No free blocks or inodes remain."""


class FileNotFoundFsError(FilesystemError):
    """The named file does not exist in the filesystem."""


class ObservabilityError(ReproError):
    """A metric or trace was registered or recorded incorrectly."""


class WorkloadError(ReproError):
    """A workload generator was configured or driven incorrectly."""


class TraceError(ReproError):
    """A trace file could not be parsed or written."""
