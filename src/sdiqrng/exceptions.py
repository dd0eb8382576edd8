"""Typed errors shared across the toolkit, mapped to CLI exit codes."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration (CLI exit code 2)."""


class CalibrationError(RuntimeError):
    """Calibration cannot produce a usable noise model (CLI exit code 3)."""


class StaleCalibrationError(CalibrationError):
    """No logged calibration certifies this extraction (exit code 3): none
    carries the fingerprint of this run's settings, the newest is past the
    recalibration interval, or the two newest raise a drift alarm."""


class InfeasiblePlanError(ValueError):
    """Requested extraction target exceeds the certified entropy (exit code 4)."""


class SecurityModelViolation(AssertionError):
    """A certified mathematical property failed verification (exit code 5)."""
