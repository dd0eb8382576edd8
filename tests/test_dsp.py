"""Tests for the offline filtering chain.

Frequency-domain expectations are computed in the test from the definitional
DFT of the designed taps (and cross-checked against scipy.signal.freqz), so
the time-domain measurements have an independent oracle.  scipy.signal is a
test-only oracle: the numpy design must equal ``firwin`` and ``lowpass`` must
equal ``fftconvolve`` bit for bit.
"""

import math

import numpy as np
import pytest
from scipy import signal as ssig

from sdiqrng import dsp
from sdiqrng.dsp import (
    AutocorrelationReport,
    autocorrelation,
    design_lowpass,
    lowpass,
    remove_low_frequency,
    subsample_per_pulse,
)


def oracle_response(h, freq, rate):
    k = np.arange(h.size)
    return abs(np.dot(h, np.exp(-2j * np.pi * freq * k / rate)))


def _tone(freq, rate, n, phase=0.0):
    t = np.arange(n) / rate
    return np.sin(2.0 * np.pi * freq * t + phase)


def _amplitude(x, taps):
    core = x[taps // 2:x.size - taps // 2]
    return math.sqrt(2.0 * np.mean(core * core))


def test_oracle_matches_freqz():
    h = design_lowpass(1000.0, 100.0, 201)
    w, resp = ssig.freqz(h, worN=[100.0], fs=1000.0)
    assert oracle_response(h, 100.0, 1000.0) == pytest.approx(abs(resp[0]),
                                                              rel=1e-12)


def test_lowpass_passband_tone_preserved():
    x = _tone(10.0, 1000.0, 8000)
    y = lowpass(x, 1000.0, 100.0, 201)
    assert _amplitude(y, 201) == pytest.approx(1.0, rel=0.01)


def test_lowpass_stopband_tone_attenuated_40db():
    x = _tone(400.0, 1000.0, 8000)
    y = lowpass(x, 1000.0, 100.0, 201)
    measured = _amplitude(y, 201)
    predicted = oracle_response(design_lowpass(1000.0, 100.0, 201),
                                400.0, 1000.0)
    assert measured <= 0.01  # >= 40 dB down
    assert measured == pytest.approx(predicted, rel=0.05)


def test_lowpass_dc_gain_unity():
    x = np.full(512, 3.7)
    y = lowpass(x, 1000.0, 100.0, 201)
    assert np.max(np.abs(y - 3.7)) < 1e-6 * 3.7
    assert abs(np.sum(design_lowpass(1000.0, 100.0, 201)) - 1.0) < 1e-6


@pytest.mark.parametrize("rate,cutoff,taps", [(1000.0, 100.0, 201),
                                              (50e6, 24.5e6, 801),
                                              (400e6, 140e6, 257)])
def test_minus_3db_point_sits_at_cutoff(rate, cutoff, taps):
    h = design_lowpass(rate, cutoff, taps)
    assert oracle_response(h, cutoff, rate) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=2e-6)


def test_lowpass_matches_direct_convolution_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=5000)
    h = design_lowpass(1000.0, 100.0, 201)
    direct = np.convolve(np.pad(x, 100, mode="reflect"), h, mode="valid")
    fft = lowpass(x, 1000.0, 100.0, 201)
    assert fft.size == direct.size == x.size
    np.testing.assert_allclose(fft, direct, atol=1e-10)


@pytest.mark.parametrize("taps", [5, 201, 257, 801, 16001])
def test_design_equals_scipy_firwin(taps):
    rng = np.random.default_rng(taps)
    for rate in (1.0, 1000.0, 50e6, 400e6):
        fractions = np.concatenate(([1e-4, 0.25, 0.5, 0.98], rng.uniform(0.001, 0.999, 6)))
        for freq in fractions * rate / 2.0:
            ours = dsp._hamming_sinc(rate, float(freq), taps)
            ref = ssig.firwin(taps, float(freq), window="hamming", fs=rate)
            assert np.array_equal(ours, ref), (rate, freq)


@pytest.mark.parametrize("n,rate,cutoff,taps", [(5000, 1000.0, 100.0, 201),
                                                (100_003, 400e6, 140e6, 257),
                                                (40_000, 50e6, 24.495e6, 16001)])
def test_lowpass_equals_scipy_fftconvolve(n, rate, cutoff, taps):
    x = np.random.default_rng(n).normal(size=n)
    padded = np.pad(x, taps // 2, mode="reflect")
    ref = ssig.fftconvolve(padded, design_lowpass(rate, cutoff, taps), mode="valid")
    assert np.array_equal(lowpass(x, rate, cutoff, taps), ref)


def test_lowpass_linearity():
    rng = np.random.default_rng(5)
    x = rng.normal(size=2048)
    y = rng.normal(size=2048)
    lhs = lowpass(2.5 * x - 1.25 * y, 1000.0, 100.0, 201)
    rhs = 2.5 * lowpass(x, 1000.0, 100.0, 201) \
        - 1.25 * lowpass(y, 1000.0, 100.0, 201)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_group_delay_compensated_impulse():
    x = np.zeros(1001)
    x[500] = 1.0
    y = lowpass(x, 1000.0, 100.0, 201)
    assert int(np.argmax(y)) == 500
    # linear phase: the compensated response is symmetric about the impulse
    np.testing.assert_allclose(y[500 + 1:500 + 90],
                               y[500 - 1:500 - 90:-1], atol=1e-12)


def test_subsample_index_arithmetic():
    x = np.arange(800.0)
    y = subsample_per_pulse(x, 800.0, 1.0, 0.5)
    np.testing.assert_array_equal(y, [400.0])
    y = subsample_per_pulse(np.arange(32.0), 8.0, 1.0, 0.0)
    np.testing.assert_array_equal(y, [0.0, 8.0, 16.0, 24.0])
    # phase just below 1 stays inside the pulse period
    y = subsample_per_pulse(np.arange(16.0), 8.0, 1.0, 0.99)
    np.testing.assert_array_equal(y, [7.0, 15.0])
    # output length is the whole number of pulses
    assert subsample_per_pulse(np.arange(805.0), 8.0, 1.0, 0.5).size == 100


def test_subsample_captures_aligned_impulse_train():
    ratio = 8
    x = np.zeros(8 * 100)
    x[4::ratio] = 1.0
    y = subsample_per_pulse(x, 8.0, 1.0, 0.5)
    assert y.size == 100
    assert np.all(y == 1.0)


def test_subsample_rejects_bad_arguments():
    with pytest.raises(ValueError):
        subsample_per_pulse(np.arange(10.0), 10.0, 3.0, 0.5)
    with pytest.raises(ValueError):
        subsample_per_pulse(np.arange(10.0), 10.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        subsample_per_pulse(np.arange(10.0), -10.0, 1.0, 0.5)


def test_notch_removes_dc_offset():
    rng = np.random.default_rng(11)
    n = 200_000
    x = rng.normal(size=n) + 5.0
    y = remove_low_frequency(x, 50e6, 25e6, 24.5e6, 801)
    core = y[400:-400]
    assert abs(np.mean(core)) < 3.0 / math.sqrt(n)


def test_notch_preserves_white_noise_variance():
    rng = np.random.default_rng(13)
    x = rng.normal(size=1_000_000)
    y = remove_low_frequency(x, 50e6, 25e6, 24.5e6, 801)
    ratio = np.var(y[400:-400]) / np.var(x)
    assert 0.97 <= ratio <= 1.03


def test_notch_attenuates_slow_sine_30db():
    n = 200_000
    x = _tone(50e3, 50e6, n)  # 0.001 of the pulse rate
    y = remove_low_frequency(x, 50e6, 25e6, 24.5e6, 801)
    measured = _amplitude(y, 801)
    # at Nyquist modulation the tone at f is attenuated by |H_lp(nyq - f)|
    predicted = oracle_response(design_lowpass(50e6, 24.5e6, 801),
                                25e6 - 50e3, 50e6)
    assert measured <= 10.0 ** (-30.0 / 20.0)
    assert measured == pytest.approx(predicted, rel=0.2)


def test_notch_rejects_modulation_above_nyquist():
    x = np.zeros(4096)
    with pytest.raises(ValueError):
        remove_low_frequency(x, 50e6, 30e6, 20e6, 801)
    with pytest.raises(ValueError):
        remove_low_frequency(x, 50e6, 0.0, 20e6, 801)


def test_full_chain_variance_bookkeeping():
    """In-band noise keeps its variance through lowpass, subsample, notch."""
    rng = np.random.default_rng(17)
    input_rate, pulse_rate = 400e6, 50e6
    white = rng.normal(size=1 << 21)
    inband = lowpass(white, input_rate, 100e6, 1001)
    pre = np.var(inband[1000:-1000])
    filtered = lowpass(inband, input_rate, 140e6, 257)
    per_pulse = subsample_per_pulse(filtered, input_rate, pulse_rate, 0.5)
    cleaned = remove_low_frequency(per_pulse, pulse_rate, 25e6, 24.5e6, 801)
    post = np.var(cleaned[400:-400])
    assert post == pytest.approx(pre, rel=0.05)


def test_autocorrelation_white_noise_report():
    rng = np.random.default_rng(19)
    rep = autocorrelation(rng.normal(size=1_000_000), max_lag=400)
    assert rep.coefficients[0] == 1.0
    assert rep.ci95 == pytest.approx(1.96e-3)
    assert rep.max_lag == 400
    assert rep.n_samples == 1_000_000
    assert np.all(np.abs(rep.coefficients) <= 1.0)
    assert 0.01 <= rep.fraction_outside_ci <= 0.10


def test_autocorrelation_ar1_matches_analytic():
    rng = np.random.default_rng(23)
    x = ssig.lfilter([1.0], [1.0, -0.5], rng.normal(size=1_000_000))
    rep = autocorrelation(x, max_lag=10)
    assert rep.coefficients[1] == pytest.approx(0.5, abs=0.01)
    assert rep.coefficients[2] == pytest.approx(0.25, abs=0.015)
    assert rep.coefficients[3] == pytest.approx(0.125, abs=0.02)


def test_autocorrelation_rejections():
    with pytest.raises(ValueError):
        autocorrelation(np.ones(1000), max_lag=10)
    with pytest.raises(ValueError):
        autocorrelation(np.arange(100.0), max_lag=10)  # max_lag >= n/10
    with pytest.raises(ValueError):
        autocorrelation(np.arange(15.0), max_lag=1)
    with pytest.raises(ValueError):
        autocorrelation(np.arange(1000.0), max_lag=0)


def test_design_and_call_rejections():
    with pytest.raises(ValueError):
        design_lowpass(1000.0, 500.0, 201)  # at Nyquist
    with pytest.raises(ValueError):
        design_lowpass(1000.0, 100.0, 200)  # even taps
    with pytest.raises(ValueError):
        design_lowpass(1000.0, 100.0, 3)
    with pytest.raises(ValueError):
        lowpass(np.zeros((2, 100)), 1000.0, 100.0, 201)
    with pytest.raises(ValueError):
        lowpass(np.zeros(50), 1000.0, 100.0, 201)  # shorter than taps//2
