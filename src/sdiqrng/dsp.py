"""Offline DSP chain: the anti-alias low-pass at the pulse rate, drift removal
and whiteness diagnostics, each in bounded memory.

The filters are linear-phase FIR (windowed-sinc, Hamming window).  The
design is numpy only and mirrors the operation order of
``scipy.signal.firwin(taps, f, window="hamming", fs=rate)``, so its taps are
bitwise equal to scipy's.  A plain windowed-sinc design places its
half-amplitude (-6 dB) point at the design frequency, so ``design_lowpass``
bisects the design frequency until the realized response crosses -3 dB at
the requested cutoff.  Each step takes |H(cutoff)| as the hypotenuse of two
real sums against a cosine and a sine probe built once, not as a
float-by-complex ``np.dot``: that dot goes through multithreaded BLAS, and
on a 2 vCPU Xeon the 46 steps of the 16001-tap notch design took 0.15 s
that way against 0.013 s with the sums, for bitwise the same taps.

The detector's analog chain runs at ``oversample`` input samples per pulse:
each pulse is a flat top over the central ``pulse_duty`` of its period,
white noise enters at the input rate, and the low-pass output is kept once
per pulse, at ``sample_phase`` of the period.  That chain is linear, so
``pulse_rate_filters`` reduces it exactly to two short filters at the pulse
rate, derived once from the same ``design_lowpass`` taps ``h``:

* signal: the flat top, low-pass and decimation of the per-pulse amplitudes
  form one FIR over lags -pad..pad, ``pad = ceil((taps // 2) / oversample)``
  (33 taps at the defaults).  Tap ``l`` sums the taps of ``h`` that fall on
  the flat top of the pulse ``l`` periods away.
* noise: unit white noise at the input rate, low-passed and decimated, is a
  stationary Gaussian MA(q) process with autocovariance
  ``r_k = sum_i h_i h_{i + k * oversample}``, ``q = (taps - 1) // oversample``.
  One standard normal per pulse through a factor ``b`` with
  ``sum_j b_j b_{j+k} = r_k`` has exactly that law.  At ``oversample = 1``
  ``h`` itself is that factor; otherwise ``b`` is the minimum-phase factor
  from the cepstrum of the spectrum ``S(w) = sum_k r_k e^{-ikw}`` (Oppenheim
  and Schafer, "Discrete-Time Signal Processing").  The factor is checked,
  not assumed: the cepstrum runs on 2**14 up to 2**20 points until ``b``'s
  autocovariance matches ``r`` within 1e-12 of ``r_0``, and a spectrum that
  is not positive, or a factor that never matches, is a ``ConfigError``
  naming the ``[dsp]`` keys.

Low-frequency drift removal, ``remove_low_frequency``, is the one filter
loop at a single rate.  Its textbook form is modulate by the carrier
(-1)**k, low-pass close to Nyquist with the taps ``h`` of
``design_lowpass``, modulate back; that is one linear-phase FIR with the
carrier folded into the taps, ``g_j = (-1)**(j - taps//2) h_j``, a
high-pass whose stop band is the band ``h`` passes, mirrored about
Nyquist.  ``h`` is designed at ``cutoff + pulse_rate/2 - modulation_freq``,
so the stop edge sits at ``modulation_freq - cutoff`` for every accepted
setting; at the default ``modulation_freq = pulse_rate/2`` that is the
plain Nyquist notch.  A cosine carrier below Nyquist is not used: it needs
a gain of 2 on the way back and leaves an image of the band at
f +- 2*modulation_freq that aliases back in (an 801-tap notch at 24.5 MHz
raised white-noise variance 1.46x that way).  The filter runs valid-mode
overlap-save on ``numpy.fft``, so no stage has to import scipy: each
cache-sized block of the input is transformed at ``next_fast_len`` points
(the smallest 5-smooth length, the same choice as scipy's
``next_fast_len(n, real=True)``), multiplied by the spectrum of ``g`` and
transformed back, and only the outputs whose window lies wholly inside the
input are kept.  ``n`` samples give ``n - taps + 1`` outputs, output ``j``
centred on sample ``j + taps // 2``; nothing is padded, so no output reads
a sample that was not measured.  The default 16001-tap notch over a
million pulses is 21 transforms of 64800 points, not one of 1.08M points.

Choosing the notch involves a real trade-off worth knowing about: removing
a band of relative width ``a = (modulation_freq - cutoff) / (rate/2)`` from white
noise leaves lag-k autocorrelation of order ``-sin(pi*a*k)/(pi*k)``, so a
survives-the-95%-CI spectrum at 1e6 samples needs ``a`` of order 1e-3 or
less (narrow notch, many taps), while aggressive drift suppression wants a
wide notch.  Both regimes are exercised in the tests.

``autocorrelation`` sums the cross spectra of chunks of at least 2**14
points, each chunk against itself extended by the next ``max_lag`` samples,
so its work space is a few chunks however long the input is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

from .exceptions import ConfigError

__all__ = [
    "design_lowpass",
    "pulse_rate_filters",
    "remove_low_frequency",
    "autocorrelation",
    "AutocorrelationReport",
    "next_fast_len",
]


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= ``n``: a length ``rfft`` transforms fast.

    Equals scipy's ``next_fast_len(n, real=True)``.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that reaches n
            candidate = p35 << (-(-n // p35) - 1).bit_length()
            best = min(best, candidate)
            p35 *= 3
        p5 *= 5
    return best


def _validate_filter_args(rate: float, cutoff: float, taps: int) -> None:
    if rate <= 0 or not math.isfinite(rate):
        raise ValueError("rate must be positive and finite")
    if not 0.0 < cutoff < rate / 2.0:
        raise ValueError(f"cutoff must lie in (0, rate/2), got {cutoff}")
    if taps < 5 or taps % 2 == 0:
        raise ValueError(f"taps must be an odd integer >= 5, got {taps}")


def _hamming_sinc(rate: float, freq: float, taps: int) -> np.ndarray:
    """Hamming windowed-sinc with half-amplitude point ``freq`` and unit DC gain."""
    right = freq / (0.5 * rate)
    m = np.arange(taps, dtype=float) - 0.5 * (taps - 1)
    h = right * np.sinc(right * m)
    h *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, taps))
    h /= np.sum(h)
    return h


@lru_cache(maxsize=32)
def design_lowpass(rate: float, cutoff: float, taps: int) -> np.ndarray:
    """Hamming windowed-sinc FIR with its -3 dB point at ``cutoff``.

    The design frequency is bisected so that |H(cutoff)| = 2**-0.5 within
    1e-6; DC gain is unity.  The taps are read-only: they are cached and
    shared by every caller.  Raises ValueError when the tap count cannot
    realize the requested cutoff (transition band would cross Nyquist).
    """
    _validate_filter_args(rate, cutoff, taps)
    nyq = rate / 2.0
    target = 2.0 ** -0.5
    probe = np.exp(-2j * np.pi * cutoff * np.arange(taps) / rate)
    cos, sin = probe.real.copy(), probe.imag.copy()

    def miss(design_freq: float) -> float:
        # |H(cutoff)| from two real sums: a float-by-complex np.dot goes
        # through multithreaded BLAS, which costs more than the sums here
        h = _hamming_sinc(rate, design_freq, taps)
        return math.hypot(float(np.sum(h * cos)), float(np.sum(h * sin))) - target

    transition = 3.3 * rate / taps
    lo = cutoff
    hi = min(cutoff + 2.0 * transition, nyq * (1.0 - 1e-9))
    if miss(hi) < 0.0:
        raise ValueError(
            f"taps={taps} cannot place a -3 dB point at {cutoff} Hz with rate {rate} Hz")
    # bisection; miss() is monotone increasing in the design frequency here
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if miss(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * nyq:
            break
    h = _hamming_sinc(rate, 0.5 * (lo + hi), taps)
    h.flags.writeable = False
    return h


@lru_cache(maxsize=32)
def pulse_rate_filters(pulse_rate: float, oversample: int, cutoff: float, taps: int,
                       pulse_duty: float, sample_phase: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The oversampled low-pass chain as two read-only filters at the pulse rate.

    Returns ``(signal, noise)``.  ``signal[pad + l]``, for lags
    ``l = -pad..pad`` with ``pad = ceil((taps // 2) / oversample)``, is the
    weight of pulse ``p + l``'s flat-top amplitude in pulse ``p``'s sample,
    so ``np.correlate(amplitudes, signal, "valid")`` is the noiseless
    chain.  ``noise`` is a factor whose autocovariance is that of unit
    white noise at the input rate after the same low-pass and decimation,
    so ``np.convolve(normals, sigma * noise, "valid")`` has that noise's law
    at variance ``sigma**2``.  The input rate is ``oversample * pulse_rate``;
    the sample is taken at offset ``min(round(sample_phase * oversample),
    oversample - 1)`` of each period.  Raises ConfigError when no factor
    reproduces the autocovariance (see the module docstring).
    """
    if isinstance(oversample, bool) or oversample != int(oversample) or oversample < 1:
        raise ValueError(f"oversample must be a positive integer, got {oversample!r}")
    if not 0.0 < pulse_duty <= 1.0:
        raise ValueError("pulse_duty must lie in (0, 1]")
    if not 0.0 <= sample_phase < 1.0:
        raise ValueError("sample_phase must lie in [0, 1)")
    ratio = int(oversample)
    h = design_lowpass(ratio * pulse_rate, cutoff, taps)
    half = taps // 2
    pad = -(-half // ratio)
    width = max(1, int(round(ratio * pulse_duty)))
    start = (ratio - width) // 2
    offset = min(int(round(sample_phase * ratio)), ratio - 1)
    # input sample j of the period of pulse p + l meets tap l*ratio + j - offset + half
    lags = np.arange(-pad, pad + 1)[:, None]
    index = lags * ratio + np.arange(start, start + width) - offset + half
    signal = np.where((index >= 0) & (index < taps), h[np.clip(index, 0, taps - 1)],
                      0.0).sum(axis=1)
    noise = h.copy() if ratio == 1 else _checked_factor(_autocovariance(h)[::ratio])
    signal.flags.writeable = noise.flags.writeable = False
    return signal, noise


def _autocovariance(b: np.ndarray) -> np.ndarray:
    """``sum_i b_i b_{i+k}`` for every lag ``k`` of ``b``."""
    return np.array([np.dot(b[:b.size - k], b[k:]) for k in range(b.size)])


def _min_phase_factor(r: np.ndarray, size: int) -> np.ndarray | None:
    """Minimum-phase ``b`` with autocovariance ``r`` by the cepstrum on
    ``size`` points, or None where the spectrum is not positive."""
    q = r.size - 1
    symmetric = np.zeros(size)
    symmetric[:q + 1] = r
    symmetric[size - q:] = r[:0:-1]
    spectrum = rfft(symmetric).real
    if not spectrum.min() > 0.0:
        return None
    # log|B| = log(S) / 2; the causal part of its cepstrum is log B
    cepstrum = irfft(np.log(spectrum), size) * 0.5
    cepstrum[1:size // 2] *= 2.0
    cepstrum[size // 2 + 1:] = 0.0
    return irfft(np.exp(rfft(cepstrum)), size)[:q + 1]


def _checked_factor(r: np.ndarray) -> np.ndarray:
    """A factor of ``r`` whose autocovariance matches it within 1e-12 of
    ``r[0]``; the cepstrum's aliasing shrinks as its length grows."""
    for size in (2 ** 14, 2 ** 16, 2 ** 18, 2 ** 20):
        b = _min_phase_factor(r, size)
        if b is None:
            break
        residual = float(np.max(np.abs(_autocovariance(b) - r))) / r[0]
        if residual <= 1e-12:
            return b
    raise ConfigError(
        "dsp: the low-passed, decimated noise has no pulse-rate factor "
        + ("(its spectrum is not positive)" if b is None else
           f"(autocovariance residual {residual:.2e} of r0 above 1e-12)")
        + "; change dsp.oversample, dsp.lowpass_cutoff or dsp.lowpass_taps")


def _block_size(taps: int) -> int:
    """Transform length of one cache-sized block for a kernel of ``taps`` samples.

    Transforms of this size stay in cache (2**14 points ran about twice as
    fast as 2**16 over 8M samples).  Overlap-save keeps ``size - taps + 1``
    outputs of each block, and the autocorrelation (``taps = max_lag``)
    sums ``size - max_lag`` samples per chunk.
    """
    return next_fast_len(max(2 ** 14, 4 * taps))


def remove_low_frequency(samples, pulse_rate: float, modulation_freq: float,
                         post_mod_lowpass_cutoff: float, taps: int) -> np.ndarray:
    """Suppress DC and drift below ``modulation_freq - post_mod_lowpass_cutoff``.

    One linear-phase FIR, ``g_j = (-1)**(j - taps//2) h_j`` with ``h`` the
    ``design_lowpass`` taps at ``post_mod_lowpass_cutoff + pulse_rate/2 -
    modulation_freq``: modulating by (-1)**k, low-passing by ``h`` and
    modulating back, folded into the taps.  Requires
    ``0 < post_mod_lowpass_cutoff < modulation_freq <= pulse_rate/2``.
    Returns the ``samples.size - taps + 1`` valid outputs: output ``j`` is
    centred on sample ``j + taps // 2`` and reads only samples
    ``j .. j + taps - 1``, so fewer than ``taps`` samples are a ValueError.
    The notch removes its band and adds nothing: at a 50 MHz pulse rate
    with 801 taps its white-noise variance ratio, ``sum(g**2)``, is 0.9996
    at (modulation_freq, cutoff) = (24.5e6, 24.495e6) and 0.9960 at (20e6,
    19.9e6), where a cosine carrier with gain 2 gave 1.46 and 1.09.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("samples must be 1-d")
    nyq = pulse_rate / 2.0
    if not 0 < post_mod_lowpass_cutoff < modulation_freq <= nyq:
        raise ValueError(
            f"need 0 < cutoff < modulation_freq <= {nyq}, got cutoff "
            f"{post_mod_lowpass_cutoff} and modulation_freq {modulation_freq}")
    # grouped so that at Nyquist the design cutoff is exactly the one given
    h = design_lowpass(pulse_rate, post_mod_lowpass_cutoff + (nyq - modulation_freq), taps)
    g = h * (-1.0) ** (np.arange(taps) - taps // 2)
    if x.size < taps:
        raise ValueError(f"need at least taps = {taps} samples, got {x.size}")
    size = _block_size(taps)
    per_block = size - taps + 1
    spectrum = rfft(g, size)
    out = np.empty(x.size - taps + 1)
    for first in range(0, out.size, per_block):
        last = min(out.size, first + per_block)
        full = irfft(rfft(x[first:last + taps - 1], size) * spectrum, size)
        out[first:last] = full[taps - 1:taps - 1 + last - first]
    return out


@dataclass(frozen=True)
class AutocorrelationReport:
    """Normalized autocorrelation r[0..max_lag] with a white-noise 95% CI."""

    coefficients: np.ndarray
    ci95: float
    fraction_outside_ci: float
    n_samples: int

    @property
    def max_lag(self) -> int:
        return self.coefficients.size - 1


def autocorrelation(samples, max_lag: int = 400) -> AutocorrelationReport:
    """Biased normalized autocorrelation estimate via blocked FFT.

    r[0] is exactly 1; the CI is the white-noise band +-1.96/sqrt(n); the
    reported fraction counts lags 1..max_lag outside that band.  Requires
    max_lag < n/10 and a non-degenerate input (zero variance is an error).

    The centred input is cut into chunks of ``size - max_lag`` samples; the
    cross spectrum of each chunk with itself extended by the next
    ``max_lag`` samples is summed, and one inverse transform of the sum
    gives every lag.  Transforms are ``size`` points, at least 2**14, so
    the work space is a few chunks whatever ``n`` is.  Integer input is
    centred chunk by chunk without a float copy of the whole.
    """
    x = np.asarray(samples)
    if x.dtype.kind not in "iu":
        x = np.asarray(x, dtype=float)
    n = x.size
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if n < 16 or max_lag >= n / 10:
        raise ValueError(f"need n > 10 * max_lag samples, got n={n}, max_lag={max_lag}")
    mean = x.mean()
    size = _block_size(max_lag)
    step = size - max_lag
    cross = np.zeros(size // 2 + 1, dtype=complex)
    for first in range(0, n, step):
        extended = x[first:first + step + max_lag] - mean
        spectrum = rfft(extended[:step], size)
        np.conjugate(spectrum, out=spectrum)
        spectrum *= rfft(extended, size)
        cross += spectrum
    acf = irfft(cross, size)[:max_lag + 1]
    if not acf[0] > 0.0:
        raise ValueError("autocorrelation of a constant or non-finite sequence "
                         "is undefined")
    r = acf / acf[0]
    r[0] = 1.0
    ci = 1.96 / math.sqrt(n)
    outside = float(np.mean(np.abs(r[1:]) > ci))
    return AutocorrelationReport(coefficients=r, ci95=ci,
                                 fraction_outside_ci=outside, n_samples=n)
