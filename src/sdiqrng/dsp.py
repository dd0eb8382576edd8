"""Offline DSP chain: anti-alias filtering with decimation to one sample per
pulse, drift removal and whiteness diagnostics.

The filters are linear-phase FIR (windowed-sinc, Hamming window).  The
design is numpy only and mirrors the operation order of
``scipy.signal.firwin(taps, f, window="hamming", fs=rate)``, so its taps are
bitwise equal to scipy's.  A plain windowed-sinc design places its
half-amplitude (-6 dB) point at the design frequency, so ``design_lowpass``
bisects the design frequency until the realized response crosses -3 dB at
the requested cutoff.

``lowpass`` is the one filter engine: FFT convolution on ``numpy.fft`` of
the reflect-padded input, group delay compensated, so no stage has to import
scipy.  Transform sizes come from ``next_fast_len``, the smallest 5-smooth
length, the same choice as scipy's ``next_fast_len(n, real=True)``.
Without decimation it is a single transform at the size and slice of
``scipy.signal.fftconvolve(..., mode="valid")``, bitwise equal to it, and
returns a sequence of the input length.  With ``decimate = D`` it keeps one
output per D inputs (one per pulse period, at ``sample_phase`` within the
period) and runs overlap-save over fixed cache-sized blocks: only the edge
blocks are reflect padded, and neither the full-rate output nor a padded
copy of the input is ever built.  The first and last ``taps // 2`` full-rate
outputs are contaminated by the padding and must be excluded from entropy
accounting.

Low-frequency drift removal works entirely with the one low-pass primitive:
modulate by cos(2*pi*f_mod*k/rate), low-pass close to Nyquist, re-modulate.
At the default ``f_mod = rate/2`` the carrier is exactly (-1)**k, the two
spectral images coincide, and the re-modulation factor is 1; for
``f_mod < rate/2`` each cosine halves the passband amplitude and the
re-modulation carries the conventional factor 2.  Net effect either way: a
linear-phase high-pass whose stop band is the original band below
``rate/2 - cutoff``.

Choosing the notch involves a real trade-off worth knowing about: removing
a band of relative width ``a = (rate/2 - cutoff) / (rate/2)`` from white
noise leaves lag-k autocorrelation of order ``-sin(pi*a*k)/(pi*k)``, so a
survives-the-95%-CI spectrum at 1e6 samples needs ``a`` of order 1e-3 or
less (narrow notch, many taps), while aggressive drift suppression wants a
wide notch.  Both regimes are exercised in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

__all__ = [
    "design_lowpass",
    "lowpass",
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
    1e-6; DC gain is unity.  Raises ValueError when the tap count cannot
    realize the requested cutoff (transition band would cross Nyquist).
    """
    _validate_filter_args(rate, cutoff, taps)
    nyq = rate / 2.0
    target = 2.0 ** -0.5
    probe = np.exp(-2j * np.pi * cutoff * np.arange(taps) / rate)

    def miss(design_freq: float) -> float:
        return float(np.abs(np.dot(_hamming_sinc(rate, design_freq, taps), probe))) - target

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
    return _hamming_sinc(rate, 0.5 * (lo + hi), taps)


def _reflected(x: np.ndarray, half: int, start: int, stop: int) -> np.ndarray:
    """``np.pad(x, half, mode="reflect")[start:stop]`` without padding all of ``x``."""
    n = x.size
    if start >= half and stop <= half + n:
        return x[start - half:stop - half]
    head = np.arange(start, min(stop, half))
    tail = np.arange(max(start, half + n), stop)
    middle = x[max(start - half, 0):max(min(stop - half, n), 0)]
    return np.concatenate((x[half - head], middle, x[2 * (n - 1) + half - tail]))


def _block_size(taps: int, decimate: int) -> int:
    """Transform length of one overlap-save block when decimating.

    Transforms of this size stay in cache (2**14 points ran about twice as
    fast as 2**16 over 8M samples); each block yields
    ``(size - taps + 1) // decimate`` kept outputs.
    """
    return next_fast_len(max(2 ** 14, 4 * taps, taps + decimate))


def lowpass(samples, rate: float, cutoff: float, taps: int = 201, *,
            decimate: int = 1, sample_phase: float = 0.5) -> np.ndarray:
    """Low-pass filter by FFT convolution, group delay compensated.

    ``decimate = 1`` returns a sequence of the input length.  An integer
    ``decimate > 1`` keeps one output per ``decimate`` inputs, the one at
    ``sample_phase`` in [0, 1) of each period (0.5 = mid-pulse), for the
    ``len(samples) // decimate`` whole periods; it equals the full output
    strided from offset ``min(round(sample_phase * decimate), decimate - 1)``
    to within rounding.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("samples must be 1-d")
    if isinstance(decimate, bool) or decimate != int(decimate) or decimate < 1:
        raise ValueError(f"decimate must be a positive integer, got {decimate!r}")
    decimate = int(decimate)
    if not 0.0 <= sample_phase < 1.0:
        raise ValueError("sample_phase must lie in [0, 1)")
    h = design_lowpass(rate, cutoff, taps)
    half = taps // 2
    if x.size <= half:
        raise ValueError(f"need more than taps//2 = {half} samples, got {x.size}")
    offset = min(int(round(sample_phase * decimate)), decimate - 1)
    count = x.size // decimate
    if decimate == 1:
        # one transform over the whole padded input: bitwise fftconvolve
        size = next_fast_len(x.size + 2 * (taps - 1))
    else:
        size = _block_size(taps, decimate)
    per_block = (size - taps + 1) // decimate
    spectrum = rfft(h, size)
    keep = taps - 1 + offset
    out = np.empty(count)
    for first in range(0, count, per_block):
        last = min(count, first + per_block)
        segment = _reflected(x, half, first * decimate,
                             (last - 1) * decimate + offset + taps)
        full = irfft(rfft(segment, size) * spectrum, size)
        out[first:last] = full[keep:keep + (last - first) * decimate:decimate]
    return out


def remove_low_frequency(samples, pulse_rate: float, modulation_freq: float,
                         post_mod_lowpass_cutoff: float, taps: int = 801) -> np.ndarray:
    """Suppress DC and drift below ``pulse_rate/2 - post_mod_lowpass_cutoff``.

    Modulate to move low frequencies up to Nyquist, low-pass them away,
    modulate back.  White-noise variance in the kept band is preserved
    (the Hamming stop band gives >= 50 dB suppression of the notched band).
    """
    x = np.asarray(samples, dtype=float)
    nyq = pulse_rate / 2.0
    if modulation_freq > nyq:
        raise ValueError(f"modulation_freq {modulation_freq} above Nyquist {nyq}")
    if modulation_freq <= 0:
        raise ValueError("modulation_freq must be positive")
    k = np.arange(x.size)
    if modulation_freq == nyq:
        carrier = np.where(k % 2 == 0, 1.0, -1.0)
        gain = 1.0  # images coincide at Nyquist: no cosine amplitude splitting
    else:
        carrier = np.cos(2.0 * np.pi * modulation_freq * k / pulse_rate)
        gain = 2.0
    shifted = lowpass(x * carrier, pulse_rate, post_mod_lowpass_cutoff, taps)
    return gain * carrier * shifted


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
    """Biased normalized autocorrelation estimate via FFT.

    r[0] is exactly 1; the CI is the white-noise band +-1.96/sqrt(n); the
    reported fraction counts lags 1..max_lag outside that band.  Requires
    max_lag < n/10 and a non-degenerate input (zero variance is an error).
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if n < 16 or max_lag >= n / 10:
        raise ValueError(f"need n > 10 * max_lag samples, got n={n}, max_lag={max_lag}")
    v = x - x.mean()
    if not np.any(v):
        raise ValueError("autocorrelation of a constant sequence is undefined")
    size = 1 << int(np.ceil(np.log2(2 * n)))
    spec = rfft(v, size)
    acf = irfft(spec * np.conj(spec), size)[:max_lag + 1]
    r = acf / acf[0]
    r[0] = 1.0
    ci = 1.96 / math.sqrt(n)
    outside = float(np.mean(np.abs(r[1:]) > ci))
    return AutocorrelationReport(coefficients=r, ci95=ci,
                                 fraction_outside_ci=outside, n_samples=n)
