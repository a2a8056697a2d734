"""Exception hierarchy shared by all scanfuse modules.

Every data-dependent failure raises a subclass of :class:`ScanFuseError` so
the CLI can distinguish data errors (exit code 2) from usage errors (exit
code 1).
"""


class ScanFuseError(Exception):
    """Base class for all scanfuse data errors."""


class MalformedScan(ScanFuseError):
    """Scan bytes are not a valid packed point record stream."""


class MalformedLabel(ScanFuseError):
    """Label bytes are not a valid packed 32-bit label stream."""


class MalformedPose(ScanFuseError):
    """Pose line is syntactically invalid or its rotation is not rigid."""


class MalformedCalib(ScanFuseError):
    """Calibration file lacks a usable sensor-to-camera transform."""


class InvalidConfig(ScanFuseError):
    """Configuration values violate their declared invariants."""


class EmptyInput(ScanFuseError):
    """An operation that needs at least one point received none."""


class InstanceNotFound(ScanFuseError):
    """Requested instance ID is absent from the reference scan."""


class DegenerateSource(ScanFuseError):
    """Source cloud is too small or too flat to constrain a rigid fit."""


class NoOverlap(ScanFuseError):
    """No correspondences within range at registration start."""


class MissingLabels(ScanFuseError):
    """A scan inside the fusion window has no label file."""


class DbWriteError(ScanFuseError):
    """Instance database could not be persisted."""


class EmptyDatabase(ScanFuseError):
    """Sampling requested from an instance database with no entries."""


class ShapeError(ScanFuseError):
    """Paired arrays disagree in shape or index alignment."""


class NumericError(ScanFuseError):
    """Non-finite values or numerically invalid rows encountered."""


class ClassRangeError(ScanFuseError):
    """Class ID outside the confusion-matrix range."""


class NoValidClasses(ScanFuseError):
    """Every class had an empty union; mean IoU is undefined."""
