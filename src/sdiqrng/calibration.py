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

``CalibrationSettings`` is the ``[calibration]`` config section, whose
vacuum sweep and fit ``calibrate`` runs.  Fits append to a CSV log whose
version line names ``time`` and every ``CalibrationResult`` field, the
``fingerprint`` of the settings behind the fit included.
``current_calibration`` alone decides which logged fit certifies an
extraction; it reads explicit timestamps, never the wall clock, so runs
replay deterministically.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

import numpy as np

# called through the module, so that a wrapper set on its attributes sees the calls
from . import detector as _detector
from ._io import append_line, iso_utc
from .detector import ChainSettings, MeasurementConfig, vacuum_unit_resolution
from .entropy import vacuum_guessing_probability
from .exceptions import CalibrationError, StaleCalibrationError
from .states import Vacuum

__all__ = [
    "CalibrationSettings",
    "CalibrationPoint",
    "CalibrationResult",
    "calibrate",
    "fit_calibration",
    "fingerprint",
    "current_calibration",
    "append_log",
    "read_log",
]

MIN_SAMPLES_PER_POINT = 10_000


@dataclass(frozen=True)
class CalibrationSettings:
    """The power sweep and fit; a fit certifies for ``recalibration_interval``
    seconds, and an H_min drift above ``drift_threshold`` raises an alarm."""

    powers: tuple[float, ...] = (0.25, 0.5, 1.0, 1.5, 2.0)
    samples_per_point: int = 200000
    min_points: int = 5
    conservatism: float = 2.0
    recalibration_interval: float = 600.0
    drift_threshold: float = 0.02

    def __post_init__(self):
        if self.samples_per_point < MIN_SAMPLES_PER_POINT:
            raise ValueError(f"samples_per_point must be >= {MIN_SAMPLES_PER_POINT}")
        if self.min_points < 3:
            raise ValueError("min_points must be >= 3")
        distinct = sorted(set(self.powers))
        if not distinct or not all(0.0 < p < math.inf for p in distinct):
            raise ValueError("powers must be non-empty, positive and finite")
        if distinct[-1] / distinct[0] < 2.0:
            raise ValueError("powers must span at least 2x (max/min)")
        if self.min_points > len(distinct):
            raise ValueError(f"min_points ({self.min_points}) exceeds the "
                             f"{len(distinct)} distinct powers")
        if self.conservatism < 0:
            raise ValueError("conservatism must be non-negative")
        if not self.recalibration_interval > 0:  # written so that NaN fails too
            raise ValueError("recalibration_interval must be positive")
        if not 0.0 < self.drift_threshold < 1.0:
            raise ValueError("drift_threshold must lie in (0, 1)")


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
    fingerprint: str = ""

    @property
    def intercept_suspicious(self) -> bool:
        """A negative electronic-noise intercept beyond two standard errors."""
        return self.intercept < -2.0 * self.intercept_stderr


def fit_calibration(points, adc_step: float, *, operating_power: float | None = None,
                    settings: CalibrationSettings = CalibrationSettings(),
                    timestamp: float = 0.0) -> CalibrationResult:
    """OLS fit of variance against power; derives the certified bin width.

    Parameters
    ----------
    points : sequence of CalibrationPoint
        At least ``settings.min_points`` distinct powers whose span
        (max/min) is at least 2; equal per-point sample counts are enforced
        so the unweighted fit is valid.
    adc_step : float
        Digitizer step in raw analog units.
    operating_power : float, optional
        Power at which extraction will run; defaults to the largest swept
        power.
    settings : CalibrationSettings
        Its ``min_points`` and ``conservatism``, the number of gradient
        standard errors subtracted before converting to a bin width, are
        read (defaults 5 and 2).

    Raises CalibrationError when the sweep is degenerate or when the
    conservative gradient is not positive.
    """
    points = list(points)
    powers = np.array([p.power for p in points])
    variances = np.array([p.variance for p in points])
    if len({p.n_samples for p in points}) > 1:
        raise CalibrationError("per-point sample counts must be equal for the OLS fit")
    distinct = np.unique(powers)
    if distinct.size < settings.min_points:
        raise CalibrationError(
            f"need {settings.min_points} distinct powers, got {distinct.size}")
    if distinct.max() / distinct.min() < 2.0:
        raise CalibrationError(
            f"power span {distinct.max() / distinct.min():.3f}x is below the required 2x")
    if adc_step <= 0:
        raise ValueError("adc_step must be positive")

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

    conservative_gradient = gradient - settings.conservatism * gradient_stderr
    if conservative_gradient <= 0.0:
        raise CalibrationError(
            f"conservative gradient {conservative_gradient} <= 0: sweep does not "
            "support a positive shot-noise slope")
    power_op = float(operating_power if operating_power is not None else powers.max())
    delta = vacuum_unit_resolution(adc_step, gradient, power_op)
    delta_conservative = vacuum_unit_resolution(adc_step, conservative_gradient, power_op)
    h_min = -math.log2(vacuum_guessing_probability(delta_conservative))
    return CalibrationResult(
        gradient=gradient, intercept=intercept,
        gradient_stderr=gradient_stderr, intercept_stderr=intercept_stderr,
        r_squared=r_squared, operating_power=power_op, adc_step=adc_step,
        delta=delta, delta_conservative=delta_conservative, h_min_bits=h_min,
        timestamp=float(timestamp))


def calibrate(detector: MeasurementConfig, chain: ChainSettings,
              settings: CalibrationSettings, rngs, timestamp: float
              ) -> tuple[CalibrationResult, list[CalibrationPoint]]:
    """Sweep ``settings.powers`` on vacuum, fit the line: ``(result, points)``.

    Point i is the variance, in raw units, of ``settings.samples_per_point``
    vacuum pulses measured at power i with ``rngs[i]`` through ``chain`` and
    quantized.  The result certifies at ``detector.lo_power`` and carries the
    ``fingerprint`` of the three settings.  A point without variance, as on
    an ADC too coarse for the vacuum, raises CalibrationError naming its power.
    """
    points = []
    for power, rng in zip(settings.powers, rngs, strict=True):
        at_power = replace(detector, lo_power=power)
        _, analog = _detector.measure_pulses(Vacuum(), at_power,
                                             settings.samples_per_point, rng, chain)
        codes, _ = _detector.quantize(analog, at_power)
        variance = float(np.var(codes.astype(float) * detector.adc_step))
        try:
            points.append(CalibrationPoint(power=power, variance=variance,
                                           n_samples=settings.samples_per_point))
        except ValueError as exc:
            raise CalibrationError(f"vacuum sweep at lo_power {power!r}: {exc} "
                                   f"(got {variance!r})") from None
    result = fit_calibration(points, detector.adc_step,
                             operating_power=detector.lo_power, settings=settings,
                             timestamp=timestamp)
    return replace(result, fingerprint=fingerprint(detector, chain, settings)), points


# settings that cannot change the fitted line or the bound derived from it
_NOT_FINGERPRINTED = {"autocorr_max_lag", "autocorr_samples",
                      "recalibration_interval", "drift_threshold"}


def fingerprint(detector: MeasurementConfig, chain: ChainSettings,
                settings: CalibrationSettings) -> str:
    """sha256 (hex) over every setting that shapes a fit and the bin width
    derived from it: each ``[detector]`` field (operating ``lo_power`` and,
    through ``adc_bits`` and ``adc_full_scale``, ``adc_step`` included), each
    ``[dsp]`` field but the autocorrelation diagnostic's, and the sweep and
    conservatism of ``[calibration]``."""
    items = [(type(section).__name__, f.name, getattr(section, f.name))
             for section in (detector, chain, settings) for f in fields(section)
             if f.name not in _NOT_FINGERPRINTED]
    return hashlib.sha256(repr(items).encode()).hexdigest()


def current_calibration(history, now: float, detector: MeasurementConfig,
                        chain: ChainSettings,
                        settings: CalibrationSettings) -> CalibrationResult:
    """The newest logged fit whose fingerprint is that of these settings.
    StaleCalibrationError when none matches, when the two newest differ in
    H_min beyond ``settings.drift_threshold`` (checked first) or when the
    newest is ``settings.recalibration_interval`` old; CalibrationError when
    ``now`` precedes it."""
    wanted = fingerprint(detector, chain, settings)
    matching = sorted((r for r in history if r.fingerprint == wanted),
                      key=lambda r: r.timestamp)
    if not matching:
        raise StaleCalibrationError(
            f"no calibration at adc_step {detector.adc_step!r} and lo_power "
            f"{detector.lo_power!r} with these settings (fingerprint {wanted})")
    last = matching[-1]
    prev = matching[-2] if len(matching) > 1 else last
    drift = abs(last.h_min_bits - prev.h_min_bits) / prev.h_min_bits
    if drift > settings.drift_threshold:
        raise StaleCalibrationError(f"alarm: h_min drifted {drift:.2%} between the "
                                    "two newest calibrations")
    age = now - last.timestamp
    if age >= settings.recalibration_interval:
        raise StaleCalibrationError(
            f"calibration is {age!r} s old, past the "
            f"{settings.recalibration_interval!r} s recalibration interval")
    if age < 0:
        raise CalibrationError(f"time {now!r} precedes the calibration at {last.timestamp!r}")
    return last


_NUMBERS = [f.name for f in fields(CalibrationResult) if f.name != "fingerprint"]
_LOG_VERSION_LINE = "# sdiqrng calibration log v3: " + ",".join(
    ["time"] + _NUMBERS + ["fingerprint"])


def append_log(path, result: CalibrationResult) -> None:
    """Append one fit as a CSV row below the version line: ISO time, every
    number by ``repr``, then the fingerprint.  A log without that line raises
    CalibrationError."""
    row = ",".join([iso_utc(result.timestamp)]
                   + [repr(getattr(result, name)) for name in _NUMBERS]
                   + [result.fingerprint])
    try:
        append_line(path, row, header=_LOG_VERSION_LINE)
    except ValueError:
        raise CalibrationError(f"{path}:1: not a version-3 calibration log") from None


def read_log(path) -> list[CalibrationResult]:
    """Parse the calibration log back into results, in file order.  An
    unreadable or non-UTF-8 file, a missing version-3 line, or a row without
    a finite number per number field raises CalibrationError naming path and line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise CalibrationError(f"{path}: calibration log is not UTF-8 text") from None
    except OSError as exc:
        raise CalibrationError(f"cannot read calibration log {path}: {exc.strerror}; "
                               "run calibrate first") from None
    if not lines or lines[0] != _LOG_VERSION_LINE:
        raise CalibrationError(f"{path}:1: not a version-3 calibration log")
    out = []
    for line_no, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        try:
            numbers = [float(cell) for cell in cells[1:-1]]
        except ValueError:
            numbers = []
        if len(numbers) != len(_NUMBERS) or not all(map(math.isfinite, numbers)):
            raise CalibrationError(f"{path}:{line_no}: malformed log line")
        out.append(CalibrationResult(**dict(zip(_NUMBERS, numbers)),
                                     fingerprint=cells[-1]))
    return out
