"""The drift notch from its definition, the oracle the overlap-save loop of
``dsp.remove_low_frequency`` is held to within rounding.

Modulate by (-1)**k, convolve with the low-pass taps designed at
``cutoff + (rate/2 - modulation_freq)`` by ``np.convolve`` in valid mode,
and modulate back by (-1)**k at each output's centre sample.  No taps are
folded and no FFT is taken, so the oracle shares nothing with the
production loop but the low-pass design.
"""

import numpy as np

from sdiqrng.dsp import design_lowpass


def reference_notch(x, rate, modulation_freq, cutoff, taps):
    """The ``x.size - taps + 1`` notch outputs, output j centred on sample
    j + taps // 2."""
    carrier = (-1.0) ** np.arange(x.size)
    half = taps // 2
    # grouped as in production, so that at Nyquist the design cutoff is
    # exactly ``cutoff``
    h = design_lowpass(rate, cutoff + (rate / 2.0 - modulation_freq), taps)
    return carrier[half:x.size - half] * np.convolve(x * carrier, h, "valid")
