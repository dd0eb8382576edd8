"""Tests for the variance-vs-power calibration and recalibration policy.

The least-squares fit is checked against scipy.stats.linregress (the
implementation solves the normal equations by hand), and the end-to-end
sweep example is checked against simulated detector data with known
ground-truth gain and electronic noise.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps

from sdiqrng.calibration import (
    CalibrationPoint,
    CalibrationResult,
    RecalibrationPolicy,
    append_log,
    fit_calibration,
    read_log,
    recalibration_decision,
)
from sdiqrng.detector import FixedPhase, MeasurementConfig, measure_pulses, quantize
from sdiqrng.exceptions import CalibrationError
from sdiqrng.states import Vacuum


def _points(powers, variances, n=20_000):
    return [CalibrationPoint(p, v, n) for p, v in zip(powers, variances)]


def _result(h_min, timestamp):
    return CalibrationResult(
        gradient=50.0, intercept=3.0, gradient_stderr=0.1,
        intercept_stderr=0.1, r_squared=0.999, operating_power=1.0,
        adc_step=0.625, delta=0.0625, delta_conservative=0.063,
        h_min_bits=h_min, timestamp=timestamp)


def test_exact_line_recovered():
    powers = [0.2, 0.4, 0.6, 0.8, 1.0]
    res = fit_calibration(_points(powers, [3.0 + 50.0 * p for p in powers]),
                          adc_step=0.625)
    assert res.gradient == pytest.approx(50.0, rel=1e-12)
    assert res.intercept == pytest.approx(3.0, rel=1e-12)
    assert res.gradient_stderr < 1e-9
    assert res.intercept_stderr < 1e-9
    assert res.r_squared == pytest.approx(1.0, abs=1e-12)
    assert res.operating_power == 1.0
    assert res.delta == pytest.approx(0.625 / math.sqrt(2.0 * 50.0), rel=1e-9)
    assert res.delta_conservative >= res.delta
    assert not res.intercept_suspicious


def test_ols_matches_scipy_linregress():
    rng = np.random.default_rng(7)
    powers = np.linspace(0.25, 2.0, 8)
    variances = 3.0 + 50.0 * powers + rng.normal(0.0, 0.05, powers.size)
    res = fit_calibration(_points(powers, variances), adc_step=0.625)
    lr = sps.linregress(powers, variances)
    assert res.gradient == pytest.approx(lr.slope, rel=1e-12)
    assert res.intercept == pytest.approx(lr.intercept, rel=1e-12)
    # stderr routes differ algebraically, so only ~1e-8 agreement is exact
    assert res.gradient_stderr == pytest.approx(lr.stderr, rel=1e-8)
    assert res.intercept_stderr == pytest.approx(lr.intercept_stderr,
                                                 rel=1e-8)
    assert res.r_squared == pytest.approx(lr.rvalue ** 2, rel=1e-10)


def test_simulated_sweep_recovers_gain_and_noise():
    """Sweep a simulated detector with gain 50 and electronic variance 3."""
    powers = [0.2, 0.4, 0.6, 0.8, 1.0]
    points = []
    for i, p in enumerate(powers):
        cfg = MeasurementConfig(lo_phase_policy=FixedPhase(0.0), lo_power=p,
                                conversion_gain=50.0,
                                electronic_noise_var=3.0)
        codes, _ = quantize(measure_pulses(Vacuum(), cfg, 1_000_000,
                                           np.random.default_rng(100 + i))[0], cfg)
        analog = codes.astype(float) * cfg.adc_step
        points.append(CalibrationPoint(p, float(np.var(analog)), codes.size))
    res = fit_calibration(points, adc_step=cfg.adc_step)
    assert res.gradient == pytest.approx(50.0, rel=0.02)
    # quantization adds step^2/12 on top of the electronic noise
    assert res.intercept == pytest.approx(3.0 + cfg.adc_step ** 2 / 12.0,
                                          rel=0.05)
    assert res.delta == pytest.approx(cfg.adc_step / math.sqrt(2.0 * 50.0),
                                      rel=0.01)
    assert res.r_squared > 0.999


def test_degenerate_sweeps_rejected():
    line = lambda ps: [3.0 + 50.0 * p for p in ps]  # noqa: E731
    with pytest.raises(CalibrationError, match="distinct"):
        fit_calibration(_points([0.5] * 5, line([0.5] * 5)), adc_step=0.625)
    with pytest.raises(CalibrationError, match="span"):
        ps = [1.0, 1.2, 1.4, 1.6, 1.8]
        fit_calibration(_points(ps, line(ps)), adc_step=0.625)
    with pytest.raises(CalibrationError, match="distinct"):
        ps = [0.5, 1.0, 1.5, 2.0]
        fit_calibration(_points(ps, line(ps)), adc_step=0.625)
    with pytest.raises(CalibrationError, match="sample counts"):
        ps = [0.2, 0.4, 0.6, 0.8, 1.0]
        pts = _points(ps[:-1], line(ps[:-1])) + [
            CalibrationPoint(1.0, 53.0, 50_000)]
        fit_calibration(pts, adc_step=0.625)
    with pytest.raises(ValueError):
        ps = [0.2, 0.4, 0.6, 0.8, 1.0]
        fit_calibration(_points(ps, line(ps)), adc_step=0.625, min_points=2)
    with pytest.raises(ValueError):
        ps = [0.2, 0.4, 0.6, 0.8, 1.0]
        fit_calibration(_points(ps, line(ps)), adc_step=0.0)


def test_flat_sweep_has_no_positive_slope():
    powers = [0.25, 0.5, 1.0, 1.5, 2.0]
    variances = [3.0, 3.1, 2.9, 3.05, 2.95]
    with pytest.raises(CalibrationError, match="conservative gradient"):
        fit_calibration(_points(powers, variances), adc_step=0.625)


def test_negative_intercept_flagged_suspicious(tmp_path):
    powers = [0.2, 0.4, 0.6, 0.8, 1.0]
    res = fit_calibration(_points(powers, [50.0 * p - 5.0 for p in powers]),
                          adc_step=0.625)
    assert res.intercept == pytest.approx(-5.0, rel=1e-9)
    assert res.intercept_suspicious
    # the flag survives the log round trip
    log = tmp_path / "calibration.log"
    append_log(log, res)
    (back,) = read_log(log)
    assert back.intercept_suspicious


def test_power_scale_equivariance():
    rng = np.random.default_rng(11)
    powers = np.linspace(0.25, 2.0, 8)
    variances = 3.0 + 50.0 * powers + rng.normal(0.0, 0.05, powers.size)
    base = fit_calibration(_points(powers, variances), adc_step=0.625)
    scaled = fit_calibration(_points(3.0 * powers, variances), adc_step=0.625)
    assert scaled.gradient == pytest.approx(base.gradient / 3.0, rel=1e-12)
    assert scaled.delta == pytest.approx(base.delta, rel=1e-12)
    assert scaled.delta_conservative == pytest.approx(
        base.delta_conservative, rel=1e-12)


def test_operating_power_override_and_conservatism():
    powers = [0.2, 0.4, 0.6, 0.8, 1.0]
    variances = [3.0 + 50.0 * p for p in powers]
    res_1 = fit_calibration(_points(powers, variances), adc_step=0.625)
    res_half = fit_calibration(_points(powers, variances), adc_step=0.625,
                               operating_power=0.5)
    assert res_half.delta == pytest.approx(res_1.delta * math.sqrt(2.0),
                                           rel=1e-12)

    rng = np.random.default_rng(13)
    noisy = [v + e for v, e in zip(variances, rng.normal(0, 0.2, 5))]
    plain = fit_calibration(_points(powers, noisy), adc_step=0.625,
                            conservatism=0.0)
    assert plain.delta_conservative == plain.delta
    strict = fit_calibration(_points(powers, noisy), adc_step=0.625,
                             conservatism=3.0)
    assert strict.delta_conservative > strict.delta
    assert strict.h_min_bits < plain.h_min_bits


def test_recalibration_decision_matrix():
    policy = RecalibrationPolicy()
    assert recalibration_decision([], 0.0, policy) == "recalibrate"
    # 5.53 -> 5.50 is a 0.5% drift: keep running
    hist = [_result(5.53, 0.0), _result(5.50, 100.0)]
    assert recalibration_decision(hist, 200.0, policy) == "keep"
    # 5.53 -> 5.30 is a 4.2% drop: alarm, even before the interval
    drop = [_result(5.53, 0.0), _result(5.30, 100.0)]
    assert recalibration_decision(drop, 101.0, policy) == "alarm"
    # alarm dominates staleness
    assert recalibration_decision(drop, 1e9, policy) == "alarm"
    single = [_result(5.53, 0.0)]
    assert recalibration_decision(single, 599.9, policy) == "keep"
    assert recalibration_decision(single, 600.0, policy) == "recalibrate"
    # history order must not matter
    assert recalibration_decision(list(reversed(drop)), 101.0,
                                  policy) == "alarm"
    with pytest.raises(ValueError):
        recalibration_decision(single, -1.0, policy)


def test_policy_validation():
    with pytest.raises(ValueError):
        RecalibrationPolicy(interval_seconds=0.0)
    with pytest.raises(ValueError):
        RecalibrationPolicy(drift_threshold=0.0)
    with pytest.raises(ValueError):
        RecalibrationPolicy(drift_threshold=1.0)


def test_log_roundtrip(tmp_path):
    powers = [0.2, 0.4, 0.6, 0.8, 1.0]
    res = fit_calibration(_points(powers, [3.0 + 50.0 * p for p in powers]),
                          adc_step=0.625, timestamp=1_786_752_000.0)
    log = tmp_path / "calibration.log"
    append_log(log, res)
    append_log(log, res)
    lines = log.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("2026-08-15T00:00:00Z,")
    back = read_log(log)
    assert len(back) == 2
    for field in ("gradient", "intercept", "gradient_stderr", "delta",
                  "delta_conservative", "h_min_bits", "operating_power",
                  "adc_step", "timestamp"):
        assert getattr(back[0], field) == getattr(res, field)
    assert not back[0].intercept_suspicious
    assert math.isnan(back[0].r_squared)

    log.write_text("# comment\n\nnot,a,valid,line\n")
    with pytest.raises(CalibrationError, match="malformed"):
        read_log(log)
    # the right field count with one field not a number
    fields = lines[0].split(",")
    fields[3] = "banana"
    log.write_text(lines[0] + "\n" + ",".join(fields) + "\n")
    with pytest.raises(CalibrationError, match=r"calibration\.log:2: malformed"):
        read_log(log)
    log.write_bytes(lines[0].encode() + b"\n\xff\xfe\n")
    with pytest.raises(CalibrationError, match="not UTF-8"):
        read_log(log)


def test_calibration_point_validation():
    with pytest.raises(ValueError):
        CalibrationPoint(0.0, 1.0, 20_000)
    with pytest.raises(ValueError):
        CalibrationPoint(1.0, -1.0, 20_000)
    with pytest.raises(ValueError):
        CalibrationPoint(1.0, 1.0, 9_999)
