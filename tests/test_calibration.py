"""Tests for the variance-vs-power calibration, its settings fingerprint and
the choice of the certifying fit.

The least-squares fit is checked against scipy.stats.linregress (the
implementation solves the normal equations by hand), and the end-to-end
sweep example is checked against simulated detector data with known
ground-truth gain and electronic noise.
"""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from sdiqrng.calibration import (
    CalibrationPoint,
    CalibrationResult,
    CalibrationSettings,
    append_log,
    calibrate,
    current_calibration,
    fingerprint,
    fit_calibration,
    read_log,
)
from sdiqrng.config import load_config, substream
from sdiqrng.detector import ChainSettings, MeasurementConfig, measure_pulses, quantize
from sdiqrng.exceptions import CalibrationError, StaleCalibrationError
from sdiqrng.states import Vacuum


def _points(powers, variances, n=20_000):
    return [CalibrationPoint(p, v, n) for p, v in zip(powers, variances)]


# the default settings: adc_step 0.625 and lo_power 1.0, as in _result
RUN = (MeasurementConfig(), ChainSettings(), CalibrationSettings())


def _result(h_min, timestamp):
    return CalibrationResult(
        gradient=50.0, intercept=3.0, gradient_stderr=0.1,
        intercept_stderr=0.1, r_squared=0.999, operating_power=1.0,
        adc_step=0.625, delta=0.0625, delta_conservative=0.063,
        h_min_bits=h_min, timestamp=timestamp, fingerprint=fingerprint(*RUN))


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
        cfg = MeasurementConfig(lo_phase_policy="fixed", lo_power=p,
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


def test_sub_nyquist_notch_certifies_what_the_chain_without_it_does():
    # the notch removes a few kHz of the band and adds nothing, so a default
    # sweep through the 801-tap 24.5 MHz notch fits the same line as one
    # without the notch (a notch that folds an image back in adds
    # variance, and certified 0.25 bits/sample more)
    h_min = {}
    for notch in ("true", "false"):
        cfg = load_config(None, overrides={
            "dsp.notch_enabled": notch, "dsp.notch_taps": "801",
            "dsp.modulation_freq": "24.5e6", "dsp.notch_cutoff": "24.495e6"})
        rngs = [substream(cfg.run.rng_seed, f"calibrate-{i}")
                for i in range(len(cfg.calibration.powers))]
        result, _ = calibrate(cfg.detector, cfg.dsp, cfg.calibration, rngs, 0.0)
        h_min[notch] = result.h_min_bits
    assert h_min["true"] == pytest.approx(h_min["false"], abs=0.01)


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
        fit_calibration(_points(ps, line(ps)), adc_step=0.625,
                        settings=CalibrationSettings(min_points=2))
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
                            settings=CalibrationSettings(conservatism=0.0))
    assert plain.delta_conservative == plain.delta
    strict = fit_calibration(_points(powers, noisy), adc_step=0.625,
                             settings=CalibrationSettings(conservatism=3.0))
    assert strict.delta_conservative > strict.delta
    assert strict.h_min_bits < plain.h_min_bits


def test_recalibration_decision_matrix():
    with pytest.raises(StaleCalibrationError, match="no calibration"):
        current_calibration([], 0.0, *RUN)
    # 5.53 -> 5.50 is a 0.5% drift: keep running on the newest entry
    hist = [_result(5.53, 0.0), _result(5.50, 100.0)]
    assert current_calibration(hist, 200.0, *RUN) == hist[1]
    # 5.53 -> 5.30 is a 4.2% drop: alarm, even before the interval
    drop = [_result(5.53, 0.0), _result(5.30, 100.0)]
    with pytest.raises(StaleCalibrationError, match="alarm"):
        current_calibration(drop, 101.0, *RUN)
    # alarm dominates staleness
    with pytest.raises(StaleCalibrationError, match="alarm"):
        current_calibration(drop, 1e9, *RUN)
    single = [_result(5.53, 0.0)]
    assert current_calibration(single, 599.9, *RUN) == single[0]
    with pytest.raises(StaleCalibrationError, match="recalibration interval"):
        current_calibration(single, 600.0, *RUN)
    # history order must not matter
    with pytest.raises(StaleCalibrationError, match="alarm"):
        current_calibration(list(reversed(drop)), 101.0, *RUN)
    # the newest by timestamp certifies, not the last logged, stale one
    newest, older = _result(5.4569, 1000.0), _result(5.4488, 500.0)
    assert current_calibration([newest, older], 1100.0, *RUN) is newest
    # an instant before the newest calibration is clock skew, not staleness
    with pytest.raises(CalibrationError, match="precedes") as skew:
        current_calibration(single, -1.0, *RUN)
    assert not isinstance(skew.value, StaleCalibrationError)


def test_only_entries_for_this_adc_step_and_lo_power_count():
    chain, settings = RUN[1:]
    wide_detector = MeasurementConfig(adc_full_scale=400.0)
    narrow = _result(5.4569, 0.0)                                 # 160 full scale
    wide = replace(_result(4.1354, 100.0), adc_step=400.0 / 256,  # 400 full scale
                   fingerprint=fingerprint(wide_detector, chain, settings))
    # two ADC ranges, 24% apart in H_min: no drift alarm against either one
    assert current_calibration([narrow, wide], 200.0, *RUN) is narrow
    assert current_calibration([narrow, wide], 200.0, wide_detector, chain,
                               settings) is wide
    with pytest.raises(StaleCalibrationError, match="no calibration at adc_step"):
        current_calibration([narrow], 200.0, wide_detector, chain, settings)
    # a fit made at another LO power certifies nothing at this one
    with pytest.raises(StaleCalibrationError, match="lo_power 2.0"):
        current_calibration([narrow], 200.0, MeasurementConfig(lo_power=2.0), chain,
                            settings)


# settings that change neither the fitted line nor the bound derived from it
NOT_FINGERPRINTED = {"autocorr_max_lag", "autocorr_samples",
                     "recalibration_interval", "drift_threshold"}


def _other_value(name, value):
    """A valid setting different from ``value`` for the field ``name``."""
    special = {"lo_phase_policy": "wrapped", "min_points": 4}
    if name in special:
        return special[name]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 2
    if isinstance(value, float):
        return value / 2 + 0.1
    return value + (4.0,)   # the swept powers


def test_fingerprint_covers_every_setting_that_shapes_the_fit():
    base = fingerprint(*RUN)
    assert len(base) == 64
    names = set()
    for i, section in enumerate(RUN):
        for field in dataclasses.fields(section):
            names.add(field.name)
            changed = list(RUN)
            changed[i] = replace(section, **{
                field.name: _other_value(field.name, getattr(section, field.name))})
            moved = fingerprint(*changed) != base
            assert moved == (field.name not in NOT_FINGERPRINTED), field.name
    assert NOT_FINGERPRINTED <= names


def test_policy_validation():
    for bad in (dict(recalibration_interval=0.0),
                dict(recalibration_interval=float("nan")),
                dict(drift_threshold=0.0), dict(drift_threshold=1.0)):
        with pytest.raises(ValueError):
            CalibrationSettings(**bad)


def test_log_roundtrip(tmp_path):
    powers = [0.2, 0.4, 0.6, 0.8, 1.0]
    res = fit_calibration(_points(powers, [3.0 + 50.0 * p for p in powers]),
                          adc_step=0.625, timestamp=1_786_752_000.0)
    res = replace(res, fingerprint=fingerprint(*RUN))
    log = tmp_path / "calibration.log"
    append_log(log, res)
    append_log(log, res)
    lines = log.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == (
        "# sdiqrng calibration log v3: time,gradient,intercept,gradient_stderr,"
        "intercept_stderr,r_squared,operating_power,adc_step,delta,"
        "delta_conservative,h_min_bits,timestamp,fingerprint")
    assert lines[1].startswith("2026-08-15T00:00:00Z,")
    assert lines[1].endswith("," + res.fingerprint)
    back = read_log(log)
    assert len(back) == 2
    for field in ("gradient", "intercept", "gradient_stderr", "intercept_stderr",
                  "r_squared", "delta", "delta_conservative", "h_min_bits",
                  "operating_power", "adc_step", "timestamp", "fingerprint"):
        assert getattr(back[0], field) == getattr(res, field)
    assert back == [res, res]
    assert not back[0].intercept_suspicious

    header = lines[0] + "\n"
    log.write_text(header + "not,a,valid,line\n")
    with pytest.raises(CalibrationError, match=r"calibration\.log:2: malformed"):
        read_log(log)
    # the right field count with one field not a number, or not finite
    for bad in ("banana", "nan", "inf"):
        fields = lines[1].split(",")
        fields[3] = bad
        log.write_text(header + lines[1] + "\n" + ",".join(fields) + "\n")
        with pytest.raises(CalibrationError, match=r"calibration\.log:3: malformed"):
            read_log(log)
    log.write_bytes(header.encode() + b"\xff\xfe\n")
    with pytest.raises(CalibrationError, match="not UTF-8"):
        read_log(log)
    with pytest.raises(CalibrationError, match="cannot read calibration log"):
        read_log(tmp_path / "missing.log")


def test_unversioned_log_is_rejected_and_not_appended_to(tmp_path):
    res = _result(5.53, 1000.0)
    # a version-1 line: ISO time, seven fit fields, power, step, timestamp
    v1 = ",".join(["1970-01-01T00:16:40Z"] + [repr(getattr(res, f)) for f in (
        "gradient", "intercept", "gradient_stderr", "intercept_stderr", "delta",
        "delta_conservative", "h_min_bits", "operating_power", "adc_step",
        "timestamp")]) + "\n"
    # a version-2 log: the version line and every number, but no fingerprint
    v2 = ("# sdiqrng calibration log v2: time,gradient,intercept,gradient_stderr,"
          "intercept_stderr,r_squared,operating_power,adc_step,delta,"
          "delta_conservative,h_min_bits,timestamp\n"
          + ",".join(["1970-01-01T00:16:40Z"] + [repr(getattr(res, f)) for f in (
              "gradient", "intercept", "gradient_stderr", "intercept_stderr",
              "r_squared", "operating_power", "adc_step", "delta",
              "delta_conservative", "h_min_bits", "timestamp")]) + "\n")
    log = tmp_path / "calibration.csv"
    for text in (v1, "", "\n" + v1, v2):
        log.write_text(text)
        with pytest.raises(CalibrationError, match=r"calibration\.csv:1: not a version-3"):
            read_log(log)
    for text in (v1, v2):
        log.write_text(text)
        with pytest.raises(CalibrationError, match=r"calibration\.csv:1: not a version-3"):
            append_log(log, res)
        assert log.read_text() == text


def test_calibration_point_validation():
    with pytest.raises(ValueError):
        CalibrationPoint(0.0, 1.0, 20_000)
    with pytest.raises(ValueError):
        CalibrationPoint(1.0, -1.0, 20_000)
    with pytest.raises(ValueError):
        CalibrationPoint(1.0, 1.0, 9_999)
