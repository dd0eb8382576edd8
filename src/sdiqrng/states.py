"""Single-mode optical state models and their homodyne quadrature statistics.

Each model checks its parameters when it is built and answers how to draw
the quadrature outcome ``q`` of a balanced homodyne measurement at
local-oscillator phase ``theta``.  Bin masses are not computed here:
``entropy.sdi_bound_check`` bounds every Fock bin at once through the
wavefunctions below, and the vacuum's bins are erf differences (``_erf``).

Units: the quadrature is dimensionless and scaled so that the vacuum state
has variance 1/2 (density ``exp(-q^2)/sqrt(pi)``).  The photon-number
(Fock) wavefunctions in this scaling are

    psi_n(q) = pi**-0.25 * (2**n n!)**-0.5 * H_n(q) * exp(-q**2 / 2)

evaluated with the numerically stable three-term recurrence on the
normalized functions.  Digitizer bins are the width-``delta`` intervals
centered on integer multiples of ``delta``, right-closed:
``bin k = (k*delta - delta/2, k*delta + delta/2]``.

Gaussian-family states are sampled with ``Generator.normal``.  Fock states
and mixtures are sampled by inverse transform: each uniform draw u is mapped
through a tabulated inverse CDF, 2**17 (cdf, q) nodes per photon number,
interpolated linearly between nodes.  The node below u is found through a
guide table of 2**17 equal-probability buckets (Chen and Asau, 1974) and at
most one step, or by binary search in the few wide tail buckets, and the
result is bit for bit what ``np.interp(u, cdf, q)`` returns.

All sampling takes an explicit ``numpy.random.Generator``; no function here
touches global RNG state, so callers control reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Vacuum",
    "Fock",
    "Thermal",
    "DisplacedSqueezed",
    "Mixture",
    "QuantumStateModel",
    "sample_quadrature",
    "bin_index",
    "search_halfwidth",
]

@dataclass(frozen=True)
class Vacuum:
    """Ground state; quadrature outcome is N(0, 1/2) at every phase."""


@dataclass(frozen=True)
class Fock:
    """Photon-number eigenstate |n>; phase-invariant, variance n + 1/2."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError(f"Fock index must be a non-negative integer, got {self.n!r}")
        if self.n > _MAX_FOCK:
            raise ValueError(f"Fock index {self.n} beyond supported maximum {_MAX_FOCK}")


@dataclass(frozen=True)
class Thermal:
    """Thermal state with ``mean_photons`` average photons.

    The quadrature distribution is exactly Gaussian with variance
    (2*mean_photons + 1) / 2 at every phase.
    """

    mean_photons: float

    def __post_init__(self):
        if not math.isfinite(self.mean_photons) or self.mean_photons < 0:
            raise ValueError(f"mean_photons must be finite and >= 0, got {self.mean_photons!r}")


@dataclass(frozen=True)
class DisplacedSqueezed:
    """Gaussian state squeezed by ``r`` along ``squeeze_angle`` and displaced.

    Measured at LO phase ``theta`` the outcome is Gaussian with

        mean     = sqrt(2) * Re(displacement * exp(-1j * theta))
        variance = (exp(-2r) cos^2(theta - squeeze_angle)
                    + exp(+2r) sin^2(theta - squeeze_angle)) / 2
    """

    r: float
    squeeze_angle: float = 0.0
    displacement: complex = 0j

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ValueError("squeezing parameter r must be finite")
        if abs(self.r) > 12.0:
            raise ValueError(f"|r| = {abs(self.r)} too large for double-precision variances")
        if not math.isfinite(self.squeeze_angle):
            raise ValueError("squeeze_angle must be finite")
        if not (math.isfinite(self.displacement.real) and math.isfinite(self.displacement.imag)):
            raise ValueError("displacement must be finite")


@dataclass(frozen=True)
class Mixture:
    """Statistical mixture of Fock states: ((weight, n), ...).

    Weights must be positive and sum to 1 within 1e-12.
    """

    components: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("mixture needs at least one component")
        total = 0.0
        for w, n in self.components:
            if w <= 0 or not math.isfinite(w):
                raise ValueError(f"mixture weight {w!r} must be positive and finite")
            Fock(n)
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {total}, expected 1 within 1e-12")


QuantumStateModel = Vacuum | Fock | Thermal | DisplacedSqueezed | Mixture

_MAX_FOCK = 512


def _fock_psi(n_max: int, q: np.ndarray):
    """Yield psi_0(q), ..., psi_{n_max}(q) by the stable recurrence on the
    normalized wavefunctions:

    psi_0 = pi**-1/4 exp(-q^2/2); psi_k = sqrt(2/k) q psi_{k-1}
                                          - sqrt((k-1)/k) psi_{k-2}.
    """
    q = np.asarray(q, dtype=float)
    prev = np.pi ** -0.25 * np.exp(-0.5 * q * q)
    yield prev
    if n_max == 0:
        return
    cur = math.sqrt(2.0) * q * prev
    yield cur
    for k in range(2, n_max + 1):
        prev, cur = cur, math.sqrt(2.0 / k) * q * cur - math.sqrt((k - 1) / k) * prev
        yield cur


def _fock_psi_sq(n: int, q: np.ndarray) -> np.ndarray:
    """|psi_n(q)|^2."""
    for psi in _fock_psi(n, q):
        pass
    return psi * psi


def search_halfwidth(n: int) -> float:
    """Half-width 8 + 4*sqrt(n + 1) of the supported outcome window of Fock n.

    The window of a photon-number-diagonal state is that of its highest
    Fock index (0 for the vacuum).
    """
    return 8.0 + 4.0 * math.sqrt(n + 1.0)


_INV_CDF_POINTS = 1 << 17
# a power of two, so that u * K and b / K are exact for every double u
_GUIDE_BUCKETS = 1 << 17
# the bucket start is the answer for 92% of Fock 0 and 1 draws and one node
# short for 8%; the other 0.7%, in tail buckets, are binary searched.  One
# step ran faster than 0, 2 or 4.
_GUIDE_STEPS = 1
# draws ``_fock_quantile`` maps per pass
_QUANTILE_SLICE = 1 << 16


@lru_cache(maxsize=64)
def _fock_inverse_cdf(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tabulated inverse CDF of Fock n: read-only ``(cdf, grid, guide)``.

    ``grid`` holds 2**17 evenly spaced q over the supported window
    (``search_halfwidth``) and ``cdf`` the trapezoid-rule CDF at
    those nodes, scaled to end at exactly 1.  ``guide`` is the guide table
    of Chen and Asau (1974; Devroye, Non-Uniform Random Variate Generation,
    III.2.4): ``guide[b]`` (int32, b = 0..K, K = 2**17) is the last node
    with ``cdf <= b / K``, where every u in [b/K, (b+1)/K) starts its
    search.  ``_fock_quantile`` reads the three to return exactly what
    ``np.interp(u, cdf, grid)`` returns.
    """
    half = search_halfwidth(n)
    grid = np.linspace(-half, half, _INV_CDF_POINTS)
    pdf = _fock_psi_sq(n, grid)
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))))
    cdf /= cdf[-1]
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    guide = (np.searchsorted(cdf, edges, side="right") - 1).astype(np.int32)
    for table in (cdf, grid, guide):
        table.flags.writeable = False
    return cdf, grid, guide


def _fock_quantile(n: int, u: np.ndarray) -> np.ndarray:
    """The tabulated inverse CDF of Fock n at each ``u`` in [0, 1].

    Equal bit for bit to ``np.interp(u, cdf, grid)``.  The node j, the last
    with ``cdf[j] <= u``, is read from the guide table and advanced
    ``_GUIDE_STEPS`` times; the draws it still falls short on, those in
    buckets spanning more nodes, are binary searched.  The value then
    follows numpy's ``arr_interp``: a node returns its own q, anything else
    ``slope * (u - cdf[j]) + grid[j]`` with ``slope = (grid[j+1] - grid[j])
    / (cdf[j+1] - cdf[j])``.  Where that cdf gap is subnormal the slope can
    overflow to inf: at the node the formula would give inf * 0 = NaN,
    and just above it np.interp returns inf as well.  Strictly inside a gap
    ``u - cdf[j] > 0``, so the formula is never NaN there and arr_interp's
    NaN retry cannot change a result.

    ``u`` is worked through ``_QUANTILE_SLICE`` draws at a time; each value
    depends on its own draw only, so the temporaries stay a few MB at any
    size.
    """
    cdf, grid, guide = _fock_inverse_cdf(n)
    out = np.empty(u.shape)
    for first in range(0, u.size, _QUANTILE_SLICE):
        part = u[first:first + _QUANTILE_SLICE]
        # j + 1 is clipped because u = 1 lands on the last node, which has
        # no right neighbour; the binary search and the node branch answer it
        j = guide.take((part * _GUIDE_BUCKETS).astype(np.intp)).astype(np.intp)
        for _ in range(_GUIDE_STEPS):
            j += cdf.take(j + 1, mode="clip") <= part
        right = cdf.take(j + 1, mode="clip")
        wide = np.flatnonzero(right <= part)
        if wide.size:
            j[wide] = np.searchsorted(cdf, part[wide], side="right") - 1
            right[wide] = cdf.take(j[wide] + 1, mode="clip")
        left = cdf.take(j)
        q = grid.take(j)
        with np.errstate(over="ignore", invalid="ignore"):
            slope = (grid.take(j + 1, mode="clip") - q) / (right - left)
            value = slope * (part - left) + q
        out[first:first + part.size] = np.where(part == left, q, value)
    return out


def sample_quadrature(state, theta, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` quadrature outcomes for ``state`` at LO phase ``theta``.

    ``theta`` may be an array (one phase per draw) for the Gaussian-family
    states; phase-invariant states ignore it.  Each model checked itself
    when it was built; anything else raises ValueError.
    """
    if not isinstance(rng, np.random.Generator):
        raise ValueError("rng must be a numpy.random.Generator")
    n_draw = int(size)
    if n_draw < 0:
        raise ValueError("size must be non-negative")

    match state:
        case Vacuum():
            out = rng.normal(0.0, math.sqrt(0.5), n_draw)
        case Thermal(mean_photons=nbar):
            out = rng.normal(0.0, math.sqrt((2.0 * nbar + 1.0) / 2.0), n_draw)
        case DisplacedSqueezed(r=r, squeeze_angle=ang, displacement=disp):
            th = np.asarray(theta, dtype=float) % (2.0 * math.pi)
            rel = th - ang
            var = (math.exp(-2.0 * r) * np.cos(rel) ** 2
                   + math.exp(2.0 * r) * np.sin(rel) ** 2) / 2.0
            mean = math.sqrt(2.0) * (disp * np.exp(-1j * th)).real
            out = rng.normal(0.0, 1.0, n_draw) * np.sqrt(var) + mean
        case Fock(n=n):
            out = _fock_quantile(n, rng.random(n_draw))
        case Mixture(components=comps):
            weights = np.array([w for w, _ in comps])
            picks = rng.choice(len(comps), size=n_draw, p=weights / weights.sum())
            out = np.empty(n_draw)
            for i, (_, n) in enumerate(comps):
                mask = picks == i
                cnt = int(mask.sum())
                if cnt:
                    out[mask] = _fock_quantile(n, rng.random(cnt))
        case _:
            raise ValueError(f"unknown state model {state!r}")
    return out


def bin_index(q, delta: float):
    """Index k of the bin (k*delta - delta/2, k*delta + delta/2] containing q."""
    if delta <= 0 or not math.isfinite(delta):
        raise ValueError("delta must be positive and finite")
    q_arr = np.asarray(q, dtype=float)
    k = np.ceil(q_arr / delta - 0.5).astype(np.int64)
    return int(k) if np.isscalar(q) else k


def _erf(x: np.ndarray) -> np.ndarray:
    """``math.erf`` elementwise: the one erf the certificate uses."""
    return np.fromiter(map(math.erf, x.tolist()), dtype=float, count=x.size)
