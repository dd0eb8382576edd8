"""Min-entropy certification for binned homodyne measurements.

The security statement quantified here: when the local-oscillator phase of
each pulse is drawn uniformly at random, the input the detector sees is
photon-number diagonal, and no single ADC bin of width ``delta`` (in vacuum
units) should capture more of it than the vacuum puts into its central bin.
The per-sample guessing probability is then bounded by

    p_guess <= erf(delta / 2)

and the certified min-entropy per sample is -log2 of that.  ``erf`` comes
from the C math library (accurate to about 1 ulp, i.e. better than 1e-15
relative); golden-value tests pin it against 50-digit arithmetic.

What ``verify`` executes of that statement: ``sdi_bound_check`` proves
S >= sup_x psi_n(x)^2 for Fock 1..``fock_n_max``, so a bin of width delta
holds at most delta * S of any of them and of any mixture of them, at
every bin offset, and delta * S <= erf(delta / 2) for every delta up to
delta* ~ 2.049.  Photon numbers above ``fock_n_max`` are covered by no
executed check.

What a run claims is one ``Certificate``, the only object that carries its
h_min, epsilon and provenance: the plan holds it, ``accounting.txt`` prints it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import states

__all__ = [
    "Certificate",
    "vacuum_guessing_probability",
    "sdi_bound_check",
    "equivalent_bit_rate",
]


@dataclass(frozen=True)
class Certificate:
    """Every extracted block is within ``epsilon`` of uniform given
    ``h_min_bits`` per sample, on the authority of ``provenance``; an
    extraction's is ``"h_min_override"`` or ``"calibration <ISO time> <fingerprint>"``."""

    h_min_bits: float
    epsilon: float
    provenance: str

    def __post_init__(self):
        if not 0.0 < self.h_min_bits < math.inf:   # NaN fails too
            raise ValueError(f"h_min_bits must be positive and finite, got {self.h_min_bits}")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")


def vacuum_guessing_probability(delta: float) -> float:
    """The vacuum's best-bin mass erf(delta / 2) at bin width ``delta``; the
    certified min-entropy per sample is -log2 of it.

    Raises ValueError for non-finite or non-positive ``delta``.  Large
    ``delta`` saturates: p tends to 1 and the certified bits to 0.
    """
    if not math.isfinite(delta) or delta <= 0.0:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    return math.erf(delta / 2.0)


# grid step of the sup bound; at 1e-2 delta* falls to 1.968, below the
# coarsest default-scale ADC's calibrated 1.998
_SUP_GRID_STEP = 1e-3


def sdi_bound_check(n_max: int) -> float:
    """A proven S >= max over 1 <= n <= ``n_max`` of sup_x psi_n(x)^2.

    Any interval of width delta then holds at most delta * S of Fock n's
    quadrature mass, at every bin offset, and so does any mixture of them.

    Proof.  Write X = sqrt(2 n_max + 1) and u = psi_n^2, even in x.
    - On [0, X]: every x lies within h/2 of a node of the grid h*k,
      k = 0..ceil(X/h).  By Indritz (Proc. AMS 1961) |psi_n| <= pi**-1/4,
      and the ladder identity psi_n' = sqrt(n/2) psi_{n-1}
      - sqrt((n+1)/2) psi_{n+1} gives |u'| = 2 |psi_n psi_n'|
      <= 2 pi**-1/2 (sqrt(n/2) + sqrt((n+1)/2)).  So sup u on [0, X] is at
      most the grid maximum plus the margin
      (h/2) 2 pi**-1/2 (sqrt(n/2) + sqrt((n+1)/2)), h = ``_SUP_GRID_STEP``.
    - Beyond X >= sqrt(2n + 1): psi_n'' = (x^2 - 2n - 1) psi_n, so
      u'' = 2 psi_n'^2 + 2 (x^2 - 2n - 1) psi_n^2 >= 0.  A convex u >= 0 that
      tends to 0 cannot rise anywhere, so |psi_n| decreases there and the
      grid reaches past every last maximum.

    The recurrence's rounding (about 5e-15 at n = 512) is far below the
    margin.  Raises ValueError unless 1 <= n_max <= 512: beyond that the
    recurrence, started from a psi_0 that underflows past |x| ~ 38.6, loses
    the mass the grid must see.
    """
    if not 1 <= n_max <= states._MAX_FOCK:
        raise ValueError(f"n_max must lie in [1, {states._MAX_FOCK}], got {n_max!r}")
    h = _SUP_GRID_STEP
    grid = np.arange(math.ceil(math.sqrt(2.0 * n_max + 1.0) / h) + 1) * h
    rows = states._fock_psi(n_max, grid)
    next(rows)  # the vacuum's best bin is its central one, erf(delta/2) itself
    return max(float(np.max(psi * psi))
               + h / math.sqrt(math.pi) * (math.sqrt(n / 2.0) + math.sqrt((n + 1) / 2.0))
               for n, psi in enumerate(rows, start=1))


def equivalent_bit_rate(pulse_rate_hz: float, bits_per_sample: float) -> float:
    """Advertised random-bit rate: pulse rate times extracted bits per sample."""
    if pulse_rate_hz <= 0 or bits_per_sample < 0:
        raise ValueError("pulse rate must be positive and bits per sample non-negative")
    return pulse_rate_hz * bits_per_sample
