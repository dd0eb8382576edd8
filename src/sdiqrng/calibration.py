"""Variance-vs-power calibration of the homodyne noise model.

Vacuum-input variance (raw analog units squared) is an affine function of
the LO power: ``variance = m * power + intercept``, where the gradient m is
the shot-noise conversion gain and the intercept is the electronic noise.
An ordinary least-squares fit over a sweep of at least ``min_points``
distinct powers spanning a factor of two provides m with a standard error;
the certified bin width uses the conservative gradient
``m - conservatism * stderr`` so that fit uncertainty can only shrink the
claimed entropy:

    delta              = adc_step / sqrt(2 * m * operating_power)
    delta_conservative = adc_step / sqrt(2 * (m - k * se_m) * operating_power)

Fits append to a CSV log whose version line names ``time`` and every
``CalibrationResult`` field.  ``current_calibration`` alone decides which
logged fit certifies an extraction; it reads explicit timestamps, never the
wall clock, so runs replay deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._io import append_line, iso_utc
from .detector import MeasurementConfig, vacuum_unit_resolution
from .entropy import vacuum_min_entropy
from .exceptions import CalibrationError, StaleCalibrationError

__all__ = [
    "CalibrationPoint",
    "CalibrationResult",
    "fit_calibration",
    "RecalibrationPolicy",
    "current_calibration",
    "append_log",
    "read_log",
]

MIN_SAMPLES_PER_POINT = 10_000


@dataclass(frozen=True)
class CalibrationPoint:
    """One sweep point: vacuum-input variance at a given LO power.

    ``variance`` is the filtered-sample variance in raw analog units
    squared (codes times the ADC step).
    """

    power: float
    variance: float
    n_samples: int

    def __post_init__(self):
        if self.power <= 0 or not math.isfinite(self.power):
            raise ValueError("power must be positive and finite")
        if self.variance <= 0 or not math.isfinite(self.variance):
            raise ValueError("variance must be positive and finite")
        if self.n_samples < MIN_SAMPLES_PER_POINT:
            raise ValueError(
                f"need at least {MIN_SAMPLES_PER_POINT} samples per point, "
                f"got {self.n_samples}")


@dataclass(frozen=True)
class CalibrationResult:
    gradient: float
    intercept: float
    gradient_stderr: float
    intercept_stderr: float
    r_squared: float
    operating_power: float
    adc_step: float
    delta: float
    delta_conservative: float
    h_min_bits: float
    timestamp: float

    @property
    def intercept_suspicious(self) -> bool:
        """A negative electronic-noise intercept beyond two standard errors."""
        return self.intercept < -2.0 * self.intercept_stderr


def fit_calibration(points, adc_step: float, *, operating_power: float | None = None,
                    min_points: int = 5, conservatism: float = 2.0,
                    timestamp: float = 0.0) -> CalibrationResult:
    """OLS fit of variance against power; derives the certified bin width.

    Parameters
    ----------
    points : sequence of CalibrationPoint
        At least ``min_points`` distinct powers whose span (max/min) is at
        least 2; equal per-point sample counts are enforced so the
        unweighted fit is valid.
    adc_step : float
        Digitizer step in raw analog units.
    operating_power : float, optional
        Power at which extraction will run; defaults to the largest swept
        power.
    conservatism : float
        Number of gradient standard errors subtracted before converting to
        a bin width (default 2).

    Raises CalibrationError when the sweep is degenerate or when the
    conservative gradient is not positive.
    """
    points = list(points)
    if min_points < 3:
        raise ValueError("min_points must be at least 3")
    powers = np.array([p.power for p in points])
    variances = np.array([p.variance for p in points])
    if len({p.n_samples for p in points}) > 1:
        raise CalibrationError("per-point sample counts must be equal for the OLS fit")
    distinct = np.unique(powers)
    if distinct.size < min_points:
        raise CalibrationError(
            f"need {min_points} distinct powers, got {distinct.size}")
    if distinct.max() / distinct.min() < 2.0:
        raise CalibrationError(
            f"power span {distinct.max() / distinct.min():.3f}x is below the required 2x")
    if adc_step <= 0:
        raise ValueError("adc_step must be positive")
    if conservatism < 0:
        raise ValueError("conservatism must be non-negative")

    n = powers.size
    x_mean = powers.mean()
    y_mean = variances.mean()
    sxx = float(np.sum((powers - x_mean) ** 2))
    sxy = float(np.sum((powers - x_mean) * (variances - y_mean)))
    gradient = float(sxy / sxx)
    intercept = float(y_mean - gradient * x_mean)
    residuals = variances - (intercept + gradient * powers)
    ssr = float(np.sum(residuals ** 2))
    sst = float(np.sum((variances - y_mean) ** 2))
    # residual variance with the exact-fit and n==2 corner cases pinned to 0
    s2 = ssr / (n - 2) if n > 2 else 0.0
    gradient_stderr = math.sqrt(s2 / sxx)
    intercept_stderr = math.sqrt(s2 * (1.0 / n + x_mean ** 2 / sxx))
    r_squared = 1.0 if sst == 0.0 else 1.0 - ssr / sst

    conservative_gradient = gradient - conservatism * gradient_stderr
    if conservative_gradient <= 0.0:
        raise CalibrationError(
            f"conservative gradient {conservative_gradient} <= 0: sweep does not "
            "support a positive shot-noise slope")
    power_op = float(operating_power if operating_power is not None else powers.max())
    delta = vacuum_unit_resolution(adc_step, gradient, power_op)
    delta_conservative = vacuum_unit_resolution(adc_step, conservative_gradient, power_op)
    h_min = vacuum_min_entropy(delta_conservative).h_min_bits
    return CalibrationResult(
        gradient=gradient, intercept=intercept,
        gradient_stderr=gradient_stderr, intercept_stderr=intercept_stderr,
        r_squared=r_squared, operating_power=power_op, adc_step=adc_step,
        delta=delta, delta_conservative=delta_conservative, h_min_bits=h_min,
        timestamp=float(timestamp))


@dataclass(frozen=True)
class RecalibrationPolicy:
    """Recalibrate after ``interval_seconds``; alarm on relative H_min drift."""

    interval_seconds: float = 600.0
    drift_threshold: float = 0.02

    def __post_init__(self):
        if not self.interval_seconds > 0:  # written so that NaN fails too
            raise ValueError("interval_seconds must be positive")
        if not 0.0 < self.drift_threshold < 1.0:
            raise ValueError("drift_threshold must lie in (0, 1)")


def current_calibration(history, now: float, policy: RecalibrationPolicy,
                        detector: MeasurementConfig) -> CalibrationResult:
    """The newest logged fit at the detector's ADC step and LO power, the two
    settings in delta = adc_step / sqrt(2 * m * lo_power).  StaleCalibrationError
    when none matches, when the two newest differ in H_min beyond the drift
    threshold (checked first) or when the newest is ``interval_seconds`` old;
    CalibrationError when ``now`` precedes it."""
    matching = sorted((r for r in history if r.adc_step == detector.adc_step
                       and r.operating_power == detector.lo_power),
                      key=lambda r: r.timestamp)
    if not matching:
        raise StaleCalibrationError(f"no calibration at adc_step {detector.adc_step!r} "
                                    f"and lo_power {detector.lo_power!r}")
    last = matching[-1]
    prev = matching[-2] if len(matching) > 1 else last
    drift = abs(last.h_min_bits - prev.h_min_bits) / prev.h_min_bits
    if drift > policy.drift_threshold:
        raise StaleCalibrationError(f"alarm: h_min drifted {drift:.2%} between the "
                                    "two newest calibrations")
    age = now - last.timestamp
    if age >= policy.interval_seconds:
        raise StaleCalibrationError(f"calibration is {age!r} s old, past the "
                                    f"{policy.interval_seconds!r} s recalibration interval")
    if age < 0:
        raise CalibrationError(f"time {now!r} precedes the calibration at {last.timestamp!r}")
    return last


_LOG_VERSION_LINE = "# sdiqrng calibration log v2: " + ",".join(
    ["time"] + [f.name for f in fields(CalibrationResult)])


def append_log(path, result: CalibrationResult) -> None:
    """Append one fit as a CSV row, ISO time then every field by ``repr``,
    below the version line; a log without that line raises CalibrationError."""
    row = ",".join([iso_utc(result.timestamp)]
                   + [repr(getattr(result, f.name)) for f in fields(result)])
    try:
        append_line(path, row, header=_LOG_VERSION_LINE)
    except ValueError:
        raise CalibrationError(f"{path}:1: not a version-2 calibration log") from None


def read_log(path) -> list[CalibrationResult]:
    """Parse the calibration log back into results, in file order.  An
    unreadable or non-UTF-8 file, a missing version line, or a row without a
    finite number per field raises CalibrationError naming path and line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise CalibrationError(f"{path}: calibration log is not UTF-8 text") from None
    except OSError as exc:
        raise CalibrationError(f"cannot read calibration log {path}: {exc.strerror}; "
                               "run calibrate first") from None
    if not lines or lines[0] != _LOG_VERSION_LINE:
        raise CalibrationError(f"{path}:1: not a version-2 calibration log")
    names = [f.name for f in fields(CalibrationResult)]
    out = []
    for line_no, line in enumerate(lines[1:], 2):
        try:
            numbers = [float(cell) for cell in line.split(",")[1:]]
        except ValueError:
            numbers = []
        if len(numbers) != len(names) or not all(map(math.isfinite, numbers)):
            raise CalibrationError(f"{path}:{line_no}: malformed log line")
        out.append(CalibrationResult(**dict(zip(names, numbers))))
    return out
