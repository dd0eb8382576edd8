"""The drift notch from its definition, the oracle the overlap-save loop of
``dsp.remove_low_frequency`` is held to within rounding.

Modulate by the carrier, convolve with the low-pass taps by ``np.convolve``
in valid mode, and modulate back at each output's centre sample: (-1)**k
with gain 1 at Nyquist, cos(2*pi*f_mod*k/rate) with gain 2 below it.
"""

import numpy as np

from sdiqrng.dsp import design_lowpass


def reference_notch(x, rate, modulation_freq, cutoff, taps):
    """The ``x.size - taps + 1`` notch outputs, output j centred on sample
    j + taps // 2."""
    k = np.arange(x.size)
    if modulation_freq == rate / 2.0:
        gain, carrier = 1.0, (-1.0) ** k
    else:
        gain, carrier = 2.0, np.cos(2.0 * np.pi * modulation_freq * k / rate)
    half = taps // 2
    h = design_lowpass(rate, cutoff, taps)
    return gain * carrier[half:x.size - half] * np.convolve(x * carrier, h, "valid")
