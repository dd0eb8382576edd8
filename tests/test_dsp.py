"""Tests for the offline filtering chain.

Frequency-domain expectations are computed in the test from the definitional
DFT of the designed taps (and cross-checked against scipy.signal.freqz), so
the time-domain measurements have an independent oracle.  scipy.signal is a
test-only oracle: the numpy design must equal ``firwin`` bit for bit, and
``scipy.fft`` is the oracle for ``next_fast_len``.  The drift notch must
equal, to within rounding, (-1)**k times ``np.convolve`` of the input
modulated by (-1)**k in valid mode.  The pulse-rate filters are checked against
the oversampled chain they replace: a flat-top wave filtered at the full
rate by ``fftconvolve`` and strided by hand, and white noise through the
same taps for the noise factor's autocovariance.  The blocked
``autocorrelation`` is checked against the per-lag sums of its definition.
"""

import math

import numpy as np
import pytest
import scipy.fft
from scipy import signal as ssig

from reference_notch import reference_notch
from sdiqrng import dsp
from sdiqrng.dsp import (
    AutocorrelationReport,
    autocorrelation,
    design_lowpass,
    next_fast_len,
    pulse_rate_filters,
    remove_low_frequency,
)
from sdiqrng.exceptions import ConfigError


def oracle_response(h, freq, rate):
    k = np.arange(h.size)
    return abs(np.dot(h, np.exp(-2j * np.pi * freq * k / rate)))


def _tone(freq, rate, n, phase=0.0):
    t = np.arange(n) / rate
    return np.sin(2.0 * np.pi * freq * t + phase)


def _amplitude(x):
    return math.sqrt(2.0 * np.mean(x * x))


def test_oracle_matches_freqz():
    h = design_lowpass(1000.0, 100.0, 201)
    w, resp = ssig.freqz(h, worN=[100.0], fs=1000.0)
    assert oracle_response(h, 100.0, 1000.0) == pytest.approx(abs(resp[0]),
                                                              rel=1e-12)


# The low-pass runs only inside the Nyquist notch, which moves a tone at f
# to the low-pass's input at 500 - f Hz (rate 1000 Hz) and back again: a
# tone at 490 Hz meets the low-pass at 10 Hz, one at 100 Hz meets it at 400.
def test_lowpass_passband_tone_preserved():
    x = _tone(490.0, 1000.0, 8000)
    y = remove_low_frequency(x, 1000.0, 500.0, 100.0, 201)
    assert _amplitude(y) == pytest.approx(1.0, rel=0.01)


def test_lowpass_stopband_tone_attenuated_40db():
    x = _tone(100.0, 1000.0, 8000)
    y = remove_low_frequency(x, 1000.0, 500.0, 100.0, 201)
    measured = _amplitude(y)
    predicted = oracle_response(design_lowpass(1000.0, 100.0, 201),
                                400.0, 1000.0)
    assert measured <= 0.01  # >= 40 dB down
    assert measured == pytest.approx(predicted, rel=0.05)


def test_lowpass_dc_gain_unity():
    # (-1)**k is DC at the low-pass's input and comes back unchanged
    x = 3.7 * (-1.0) ** np.arange(512)
    y = remove_low_frequency(x, 1000.0, 500.0, 100.0, 201)
    assert np.max(np.abs(y - x[100:-100])) < 1e-6 * 3.7
    assert abs(np.sum(design_lowpass(1000.0, 100.0, 201)) - 1.0) < 1e-6


def test_design_taps_are_read_only():
    # cached and shared by every caller, so a write must not reach the cache
    h = design_lowpass(1000.0, 100.0, 201)
    with pytest.raises(ValueError):
        h[0] = 5.0
    assert design_lowpass(1000.0, 100.0, 201)[0] != 5.0


@pytest.mark.parametrize("rate,cutoff,taps", [(1000.0, 100.0, 201),
                                              (50e6, 24.5e6, 801),
                                              (400e6, 140e6, 257)])
def test_minus_3db_point_sits_at_cutoff(rate, cutoff, taps):
    h = design_lowpass(rate, cutoff, taps)
    assert oracle_response(h, cutoff, rate) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=2e-6)


@pytest.mark.parametrize("taps", [5, 201, 257, 801, 16001])
def test_design_equals_scipy_firwin(taps):
    rng = np.random.default_rng(taps)
    for rate in (1.0, 1000.0, 50e6, 400e6):
        fractions = np.concatenate(([1e-4, 0.25, 0.5, 0.98], rng.uniform(0.001, 0.999, 6)))
        for freq in fractions * rate / 2.0:
            ours = dsp._hamming_sinc(rate, float(freq), taps)
            ref = ssig.firwin(taps, float(freq), window="hamming", fs=rate)
            assert np.array_equal(ours, ref), (rate, freq)


def _per_step_probe_design(rate, cutoff, taps):
    """The bisection as first written: a fresh probe vector on every step."""
    nyq = rate / 2.0

    def miss(freq):
        h = dsp._hamming_sinc(rate, freq, taps)
        k = np.arange(h.size)
        return float(np.abs(np.dot(h, np.exp(-2j * np.pi * cutoff * k / rate)))) - 2.0 ** -0.5

    lo = cutoff
    hi = min(cutoff + 2.0 * 3.3 * rate / taps, nyq * (1.0 - 1e-9))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if miss(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * nyq:
            break
    return dsp._hamming_sinc(rate, 0.5 * (lo + hi), taps)


@pytest.mark.parametrize("rate,cutoff,taps", [(1000.0, 100.0, 201),
                                              (400e6, 140e6, 257),
                                              (50e6, 24.5e6, 801),
                                              (50e6, 24.495e6, 16001),
                                              (50e6, 24.995e6, 16001),
                                              (50e6, 24.495e6, 801)])
def test_design_equals_per_step_probe_bisection(rate, cutoff, taps):
    expected = _per_step_probe_design(rate, cutoff, taps)
    assert np.array_equal(dsp.design_lowpass.__wrapped__(rate, cutoff, taps), expected)


def _per_block(taps):
    return dsp._block_size(taps) - taps + 1


@pytest.mark.parametrize("modulation_freq", [25e6, 24.5e6])
@pytest.mark.parametrize("taps,n", [
    (801, 3 * _per_block(801) + 7),      # three whole blocks and a tail of 7
    (801, _per_block(801) + 800),        # exactly one block of outputs
    (801, 801),                          # one output
    (16001, 2 * _per_block(16001) + 16007),
    (16001, 16001)])
def test_notch_matches_direct_convolution_oracle(taps, n, modulation_freq):
    x = np.random.default_rng(n).normal(size=n)
    got = remove_low_frequency(x, 50e6, modulation_freq, 24.495e6, taps)
    ref = reference_notch(x, 50e6, modulation_freq, 24.495e6, taps)
    assert got.shape == ref.shape == (n - taps + 1,)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    if n == taps:     # one sample fewer has no valid output
        with pytest.raises(ValueError, match="at least taps"):
            remove_low_frequency(x[1:], 50e6, modulation_freq, 24.495e6, taps)


def test_next_fast_len_equals_scipy():
    # every length up to 2**16, then both sides of every 5-smooth length up
    # to 2**27: the answer only steps there, and the transforms the code
    # requests (blocks of samples, padded seeds) lie in that range
    smooth = sorted(2 ** a * 3 ** b * 5 ** c for a in range(28) for b in range(17)
                    for c in range(12) if 2 ** a * 3 ** b * 5 ** c <= 2 ** 27)
    lengths = set(range(1, 2 ** 16)) | {s + d for s in smooth for d in (-1, 0, 1)}
    for n in sorted(lengths - {0}):
        assert next_fast_len(n) == scipy.fft.next_fast_len(n, real=True), n
    with pytest.raises(ValueError):
        next_fast_len(0)


def test_group_delay_compensated_impulse():
    # output j is centred on sample j + taps // 2: an impulse at sample 500
    # peaks at output 400
    x = np.zeros(1001)
    x[500] = 1.0
    y = remove_low_frequency(x, 1000.0, 500.0, 100.0, 201)
    assert int(np.argmax(np.abs(y))) == 400
    # linear phase: the response is symmetric about the impulse
    np.testing.assert_allclose(y[400 + 1:400 + 90],
                               y[400 - 1:400 - 90:-1], atol=1e-12)


def _offset(sample_phase, decimate):
    return min(int(round(sample_phase * decimate)), decimate - 1)


def _full_rate(amplitudes, rate, cutoff, taps, decimate, duty):
    """The flat-top wave of ``amplitudes`` at ``decimate`` samples per pulse,
    filtered at the full rate by ``fftconvolve`` of the reflect-padded wave."""
    width = max(1, int(round(decimate * duty)))
    start = (decimate - width) // 2
    pulses = np.zeros((amplitudes.size, decimate))
    pulses[:, start:start + width] = amplitudes[:, None]
    return ssig.fftconvolve(np.pad(pulses.ravel(), taps // 2, mode="reflect"),
                            design_lowpass(rate, cutoff, taps), mode="valid")


def _strided(amplitudes, rate, cutoff, taps, decimate, sample_phase, duty=0.5):
    """Oracle for the pulse-rate signal filter: the full-rate output, then
    one sample per pulse."""
    full = _full_rate(amplitudes, rate, cutoff, taps, decimate, duty)
    return full[_offset(sample_phase, decimate)::decimate]


@pytest.mark.parametrize("taps", [5, 257, 801])
@pytest.mark.parametrize("decimate", [2, 4, 8, 16])
def test_decimating_lowpass_equals_full_output_strided(decimate, taps):
    # the signal filter over the amplitudes equals the oversampled chain at
    # every pulse whose full-rate window stays clear of the reflect padding
    rng = np.random.default_rng(100 * decimate + taps)
    for n in (taps // decimate + 3, 1003):
        amplitudes = rng.normal(size=n)
        for phase in (0.0, 0.5, 0.99):
            for duty in (0.5, 1.0, 0.01):
                signal, _ = pulse_rate_filters(8.0 / decimate, decimate, 2.8, taps,
                                               duty, phase)
                pad = signal.size // 2
                assert pad == -(-(taps // 2) // decimate)
                got = np.correlate(amplitudes, signal, "valid")
                ref = _strided(amplitudes, 8.0, 2.8, taps, decimate, phase, duty)
                assert got.shape == (n - 2 * pad,)
                # relative to the input: at a short duty a few outputs are 0
                np.testing.assert_allclose(got, ref[pad:n - pad], rtol=0,
                                           atol=1e-12 * np.abs(amplitudes).max())


def test_decimate_index_arithmetic():
    # one pulse of unit amplitude: the signal taps are its full-rate
    # response read at the kept offset of each period, and that offset is
    # min(round(sample_phase * oversample), oversample - 1)
    def response(decimate, phase, taps=201, duty=0.5):
        signal, _ = pulse_rate_filters(8.0 / decimate, decimate, 2.8, taps, duty, phase)
        pad = signal.size // 2
        amplitudes = np.zeros(4 * pad + 1)    # no reflection reaches pulses pad..3 pad
        amplitudes[2 * pad] = 1.0
        ref = _strided(amplitudes, 8.0, 2.8, taps, decimate, phase, duty)
        # pulse p sees the amplitude at lag 2 pad - p
        np.testing.assert_allclose(signal, ref[pad:3 * pad + 1][::-1], rtol=0, atol=1e-14)
        return signal

    assert _offset(0.5, 800) == 400 and _offset(0.0, 8) == 0
    assert _offset(0.99, 8) == 7      # a phase just below 1 stays in the period
    assert _offset(0.75, 2) == 1      # round half to even, then clamped
    for decimate, phase in ((800, 0.5), (8, 0.0), (8, 0.99), (2, 0.75), (3, 0.5)):
        response(decimate, phase)
    # at one sample per pulse the phase has no sample to choose and the
    # signal filter is the low-pass itself
    signal = response(1, 0.9, taps=5, duty=1.0)
    assert np.array_equal(signal, design_lowpass(8.0, 2.8, 5))
    assert np.array_equal(pulse_rate_filters(8.0, 1, 2.8, 5, 1.0, 0.0)[0], signal)


def test_decimate_keeps_the_mid_pulse_sample():
    # a flat top centred in its period peaks at lag 0 when sampled mid-pulse
    signal, _ = pulse_rate_filters(1.0, 8, 2.8, 201, 0.5, 0.5)
    pad = signal.size // 2
    assert signal.size == 2 * 13 + 1 and int(np.argmax(signal)) == pad
    amplitudes = np.zeros(4 * pad + 1)
    amplitudes[2 * pad] = 1.0
    peak = _full_rate(amplitudes, 8.0, 2.8, 201, 8, 0.5).max()
    assert signal[pad] == pytest.approx(peak, abs=1e-12)
    start, _ = pulse_rate_filters(1.0, 8, 2.8, 201, 0.5, 0.0)
    assert start[pad] < signal[pad]
    # the taps are read-only: they are cached and shared by every caller
    with pytest.raises(ValueError):
        signal[0] = 1.0


def test_decimate_rejects_bad_arguments():
    for oversample in (0, -8, 2.5, True):
        with pytest.raises(ValueError, match="oversample"):
            pulse_rate_filters(1.0, oversample, 0.4, 5, 0.5, 0.5)
    for phase in (1.0, -0.1):
        with pytest.raises(ValueError, match="sample_phase"):
            pulse_rate_filters(1.0, 2, 0.4, 5, 0.5, phase)
    for duty in (0.0, 1.5):
        with pytest.raises(ValueError, match="pulse_duty"):
            pulse_rate_filters(1.0, 2, 0.4, 5, duty, 0.5)
    with pytest.raises(ValueError, match="rate"):
        pulse_rate_filters(-10.0, 2, 2.0, 5, 0.5, 0.5)


def _noise_autocovariance(h, decimate):
    """sum_i h_i h_{i + k * decimate} for k = 0..(taps - 1) // decimate."""
    return np.array([np.dot(h[:h.size - k], h[k:]) for k in range(0, h.size, decimate)])


def _lag_covariance_bound(r, n):
    """Four standard errors of a lag covariance estimate from ``n`` samples
    of a Gaussian MA process with autocovariance ``r``: Bartlett's
    n var(c_k) = sum_j gamma_j^2 + gamma_{j+k} gamma_{j-k} is at most
    2 sum_j gamma_j^2, with equality at lag 0."""
    return 4.0 * math.sqrt(2.0 * (r[0] ** 2 + 2.0 * np.sum(r[1:] ** 2)) / n)


# (pulse rate, oversample, cutoff, taps, duty, phase): the defaults, one
# sample per pulse, two, a full duty cycle, phases 0 and 0.75, and 20 MHz
# cutoffs at oversample 8 and 2, whose decimated noise spectra dip to 1.5e-6
# and 4e-11 of r0 (the second needs a 2**18-point cepstrum)
FACTOR_POINTS = [(50e6, 8, 140e6, 257, 0.5, 0.5), (50e6, 1, 20e6, 257, 0.5, 0.5),
                 (50e6, 2, 40e6, 257, 0.5, 0.5), (50e6, 8, 140e6, 257, 1.0, 0.5),
                 (50e6, 8, 140e6, 257, 0.5, 0.0), (50e6, 8, 140e6, 257, 0.5, 0.75),
                 (50e6, 8, 20e6, 257, 0.5, 0.5), (50e6, 2, 20e6, 257, 0.5, 0.5)]


@pytest.mark.parametrize("point", FACTOR_POINTS)
def test_noise_factor_reproduces_the_decimated_autocovariance(point):
    rate, decimate, cutoff, taps, duty, phase = point
    _, factor = pulse_rate_filters(*point)
    r = _noise_autocovariance(design_lowpass(decimate * rate, cutoff, taps), decimate)
    assert factor.size == r.size == (taps - 1) // decimate + 1
    acov = np.array([np.dot(factor[:factor.size - k], factor[k:])
                     for k in range(factor.size)])
    np.testing.assert_allclose(acov, r, rtol=0, atol=1e-14 * r[0])
    if decimate == 1:
        assert np.array_equal(factor, design_lowpass(rate, cutoff, taps))


def test_noise_autocovariance_is_that_of_white_noise_through_the_chain():
    # the law the factor reproduces, against the oversampled chain itself:
    # white noise at 8 samples per pulse, low-passed at the full rate and
    # kept once per pulse
    h = design_lowpass(400e6, 140e6, 257)
    r = _noise_autocovariance(h, 8)
    white = np.random.default_rng(53).normal(size=8 * 400_000)
    kept = ssig.fftconvolve(white, h, mode="valid")[4::8]
    n = kept.size
    sample = np.array([np.dot(kept[:n - k], kept[k:]) / n for k in range(r.size)])
    assert np.all(np.abs(sample - r) < _lag_covariance_bound(r, n)), sample - r


def test_noise_factor_that_misses_its_autocovariance_is_a_config_error(monkeypatch):
    # no accepted setting was found whose factor misses, so a factor is
    # perturbed by 1e-9 to exercise the check, and a spectrum is made negative
    point = (50e6, 8, 140e6, 257, 0.5, 0.5)
    exact = dsp._min_phase_factor
    pulse_rate_filters.cache_clear()
    try:
        monkeypatch.setattr(dsp, "_min_phase_factor",
                            lambda r, size: exact(r, size) * (1.0 + 1e-9))
        with pytest.raises(ConfigError, match="dsp.oversample, dsp.lowpass_cutoff"
                                              " or dsp.lowpass_taps") as info:
            pulse_rate_filters(*point)
        assert "residual" in str(info.value)
        monkeypatch.setattr(dsp, "_min_phase_factor", lambda r, size: None)
        with pytest.raises(ConfigError, match="not positive"):
            pulse_rate_filters(*point)
    finally:
        monkeypatch.undo()
        pulse_rate_filters.cache_clear()
    r = np.array([1.0, 0.6])          # S(w) = 1 + 1.2 cos(w) dips below 0
    assert exact(r, 2 ** 14) is None
    assert pulse_rate_filters(*point)[1].size == 33


def test_notch_removes_dc_offset():
    rng = np.random.default_rng(11)
    n = 200_000
    x = rng.normal(size=n) + 5.0
    y = remove_low_frequency(x, 50e6, 25e6, 24.5e6, 801)
    assert abs(np.mean(y)) < 3.0 / math.sqrt(n)


def test_notch_preserves_white_noise_variance():
    rng = np.random.default_rng(13)
    x = rng.normal(size=1_000_000)
    y = remove_low_frequency(x, 50e6, 25e6, 24.5e6, 801)
    ratio = np.var(y) / np.var(x)
    assert 0.97 <= ratio <= 1.03


def test_notch_attenuates_slow_sine_30db():
    n = 200_000
    x = _tone(50e3, 50e6, n)  # 0.001 of the pulse rate
    y = remove_low_frequency(x, 50e6, 25e6, 24.5e6, 801)
    measured = _amplitude(y)
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
    with pytest.raises(ValueError):
        remove_low_frequency(x, 50e6, math.nan, 20e6, 801)


def test_notch_rejects_cutoff_at_or_above_modulation():
    # the stop edge is modulation_freq - cutoff, so it must be positive
    x = np.zeros(4096)
    for modulation_freq, cutoff in ((24.5e6, 24.5e6), (20e6, 24e6), (25e6, 0.0)):
        with pytest.raises(ValueError, match="cutoff < modulation_freq"):
            remove_low_frequency(x, 50e6, modulation_freq, cutoff, 801)


@pytest.mark.parametrize("modulation_freq,cutoff", [(24.5e6, 24.495e6), (20e6, 19.9e6)])
def test_sub_nyquist_notch_adds_no_variance(modulation_freq, cutoff):
    # below Nyquist the notch is still a high-pass: it removes a band from
    # white noise and folds no image of the band back in
    x = np.random.default_rng(19).normal(size=1 << 18)
    y = remove_low_frequency(x, 50e6, modulation_freq, cutoff, 801)
    ratio = np.mean(y * y) / np.mean(x[400:-400] ** 2)
    assert 0.99 <= ratio <= 1.0


def test_full_chain_variance_bookkeeping():
    """In-band noise keeps its variance through decimating low-pass and notch."""
    rng = np.random.default_rng(17)
    input_rate, pulse_rate = 400e6, 50e6
    white = rng.normal(size=1 << 21)
    inband = ssig.fftconvolve(white, design_lowpass(input_rate, 100e6, 1001), "valid")
    pre = np.var(inband)
    per_pulse = ssig.fftconvolve(inband, design_lowpass(input_rate, 140e6, 257),
                                 "valid")[4::int(input_rate // pulse_rate)]
    cleaned = remove_low_frequency(per_pulse, pulse_rate, 25e6, 24.5e6, 801)
    post = np.var(cleaned)
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


def _direct_autocorrelation(x, max_lag):
    v = np.asarray(x, dtype=float) - np.mean(x)
    acf = np.array([np.dot(v[:v.size - k], v[k:]) for k in range(max_lag + 1)])
    return acf / acf[0]


@pytest.mark.parametrize("n,max_lag", [
    (5000, 50),                 # shorter than one chunk
    (2 * 15984, 400),           # two whole chunks of 2**14 - 400 samples
    (3 * 15984 + 7, 400),       # a tail chunk of 7 samples, fewer than max_lag
    (2 * 15984 + 9000, 400),    # not a multiple of the chunk step
    (50_001, 5000),             # max_lag just under n / 10
])
def test_blocked_autocorrelation_equals_direct_sums(n, max_lag):
    rng = np.random.default_rng(n + max_lag)
    # correlated input, so that the coefficients are not all near zero
    x = np.convolve(rng.normal(size=n + 3), [1.0, 0.6, -0.3, 0.2], mode="valid") + 4.0
    rep = autocorrelation(x, max_lag)
    assert rep.n_samples == n and rep.max_lag == max_lag
    # coefficients are relative to the lag-0 sum, so 1e-12 is relative to it
    np.testing.assert_allclose(rep.coefficients, _direct_autocorrelation(x, max_lag),
                               rtol=0, atol=1e-12)


def test_autocorrelation_of_integer_codes_equals_their_float_copy():
    codes = np.random.default_rng(31).integers(-128, 128, 40_000).astype(np.int16)
    ints, floats = autocorrelation(codes, 300), autocorrelation(codes.astype(float), 300)
    assert np.array_equal(ints.coefficients, floats.coefficients)
    assert ints.fraction_outside_ci == floats.fraction_outside_ci


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
    with pytest.raises(ValueError, match="1-d"):
        remove_low_frequency(np.zeros((2, 300)), 1000.0, 500.0, 100.0, 201)
    with pytest.raises(ValueError, match="at least taps"):
        remove_low_frequency(np.zeros(200), 1000.0, 500.0, 100.0, 201)
