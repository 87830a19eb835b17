"""Exception hierarchy for the SERO reproduction library.

Every exception raised by this package derives from :class:`ReproError`
so that callers can catch library failures with a single handler while
still being able to discriminate between device-level, file-system
level and integrity failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the library exception hierarchy."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent parameters."""


# ---------------------------------------------------------------------------
# Medium / physics


class MediumError(ReproError):
    """Base class for errors raised by the patterned-medium simulation."""


class DotAddressError(MediumError):
    """A dot coordinate lies outside the medium matrix."""


# ---------------------------------------------------------------------------
# Device


class DeviceError(ReproError):
    """Base class for SERO device-level errors."""


class BadBlockError(DeviceError):
    """The addressed block is marked bad (fabrication defect)."""


class ReadError(DeviceError):
    """A sector read failed CRC/ECC verification."""


class WriteError(DeviceError):
    """A sector write could not be completed or verified."""


class HeatedBlockError(DeviceError):
    """A magnetic write targeted a block inside a heated line.

    Heated data blocks may still be *read* magnetically, but magnetic
    writes to them are tamper attempts: the device performs them (an
    attacker with direct medium access cannot be stopped) but a
    well-behaved driver refuses, raising this error.
    """


class HeatError(DeviceError):
    """The heat-line write-once operation failed its verify step."""


class AlignmentError(DeviceError):
    """A line operation was given a block range not aligned on a 2**N
    boundary, or with a length that is not a power of two."""


# ---------------------------------------------------------------------------
# Tamper evidence


class TamperEvidentError(ReproError):
    """Base class for conditions that constitute evidence of tampering."""


class HashMismatchError(TamperEvidentError):
    """A heated line's recomputed hash does not match the stored hash."""


class InvalidCellError(TamperEvidentError):
    """A Manchester cell decoded to the illegal ``HH`` pattern."""


# ---------------------------------------------------------------------------
# File system


class FileSystemError(ReproError):
    """Base class for SERO file-system errors."""


class NoSpaceError(FileSystemError):
    """The writable (unheated) area of the device is exhausted."""


class FileNotFoundError_(FileSystemError):
    """Named file does not exist (suffixed to avoid shadowing builtins)."""


class FileExistsError_(FileSystemError):
    """Named file already exists."""


class ImmutableFileError(FileSystemError):
    """A mutating operation (write/unlink/link) targeted a heated file."""


class NotADirectoryError_(FileSystemError):
    """Path component is not a directory."""


class DirectoryNotEmptyError(FileSystemError):
    """Attempt to remove a non-empty directory."""


# ---------------------------------------------------------------------------
# Integrity structures


class IntegrityError(ReproError):
    """Base class for Venti / fossilised-index errors."""


class UnknownScoreError(IntegrityError):
    """A content address (score) is not present in the store."""


class FossilSlotError(IntegrityError):
    """A fossilised-index node slot was already occupied (collision) or
    an insert targeted a sealed (heated) node."""
