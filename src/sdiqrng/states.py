"""Single-mode optical state models and their homodyne quadrature statistics.

Every model in this module answers three questions about a balanced homodyne
measurement at local-oscillator phase ``theta``:

* what is the probability density of the quadrature outcome ``q``,
* how do I draw samples from it,
* how much probability can fall into a single ADC bin of width ``delta``.

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
    "validate_state",
    "quadrature_pdf",
    "sample_quadrature",
    "max_bin_probabilities",
    "bin_index",
    "search_halfwidth",
]

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class Vacuum:
    """Ground state; quadrature outcome is N(0, 1/2) at every phase."""


@dataclass(frozen=True)
class Fock:
    """Photon-number eigenstate |n>; phase-invariant, variance n + 1/2."""

    n: int


@dataclass(frozen=True)
class Thermal:
    """Thermal state with ``mean_photons`` average photons.

    The quadrature distribution is exactly Gaussian with variance
    (2*mean_photons + 1) / 2 at every phase.
    """

    mean_photons: float


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


@dataclass(frozen=True)
class Mixture:
    """Statistical mixture of Fock states: ((weight, n), ...).

    Weights must be positive and sum to 1 within 1e-12.
    """

    components: tuple[tuple[float, int], ...]


QuantumStateModel = Vacuum | Fock | Thermal | DisplacedSqueezed | Mixture

_MAX_FOCK = 4096


def validate_state(state: QuantumStateModel) -> None:
    """Raise ValueError if ``state`` violates a model precondition."""
    match state:
        case Vacuum():
            return
        case Fock(n=n):
            if not isinstance(n, (int, np.integer)) or n < 0:
                raise ValueError(f"Fock index must be a non-negative integer, got {n!r}")
            if n > _MAX_FOCK:
                raise ValueError(f"Fock index {n} beyond supported maximum {_MAX_FOCK}")
        case Thermal(mean_photons=nbar):
            if not math.isfinite(nbar) or nbar < 0:
                raise ValueError(f"mean_photons must be finite and >= 0, got {nbar!r}")
        case DisplacedSqueezed(r=r, squeeze_angle=ang, displacement=disp):
            if not math.isfinite(r):
                raise ValueError("squeezing parameter r must be finite")
            if abs(r) > 12.0:
                raise ValueError(f"|r| = {abs(r)} too large for double-precision variances")
            if not math.isfinite(ang):
                raise ValueError("squeeze_angle must be finite")
            if not (math.isfinite(disp.real) and math.isfinite(disp.imag)):
                raise ValueError("displacement must be finite")
        case Mixture(components=comps):
            if len(comps) == 0:
                raise ValueError("mixture needs at least one component")
            total = 0.0
            for w, n in comps:
                if w <= 0 or not math.isfinite(w):
                    raise ValueError(f"mixture weight {w!r} must be positive and finite")
                validate_state(Fock(n))
                total += w
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"mixture weights sum to {total}, expected 1 within 1e-12")
        case _:
            raise ValueError(f"unknown state model {state!r}")


def _reduce_theta(theta: float) -> float:
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return float(theta) % (2.0 * math.pi)


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


def _gaussian_moments(state: QuantumStateModel, theta: float) -> tuple[float, float] | None:
    """(mean, variance) for the Gaussian-family states, None otherwise."""
    match state:
        case Vacuum():
            return 0.0, 0.5
        case Thermal(mean_photons=nbar):
            return 0.0, (2.0 * nbar + 1.0) / 2.0
        case DisplacedSqueezed(r=r, squeeze_angle=ang, displacement=disp):
            rel = theta - ang
            var = (math.exp(-2.0 * r) * math.cos(rel) ** 2
                   + math.exp(2.0 * r) * math.sin(rel) ** 2) / 2.0
            mean = math.sqrt(2.0) * (disp * np.exp(-1j * theta)).real
            return mean, var
        case _:
            return None


def quadrature_pdf(state: QuantumStateModel, theta: float, q):
    """Probability density of the quadrature outcome at LO phase ``theta``.

    Parameters
    ----------
    state : QuantumStateModel
    theta : float
        Local-oscillator phase; reduced modulo 2*pi.  Fock states,
        thermal states and their mixtures are phase-invariant.
    q : float or array_like
        Evaluation points.

    Returns
    -------
    float or ndarray, matching the shape of ``q``.
    """
    validate_state(state)
    theta = _reduce_theta(theta)
    q_arr = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q_arr)):
        raise ValueError("q must be finite")
    moments = _gaussian_moments(state, theta)
    if moments is not None:
        mean, var = moments
        out = np.exp(-((q_arr - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    elif isinstance(state, Fock):
        out = _fock_psi_sq(state.n, q_arr)
    else:
        out = np.zeros_like(q_arr)
        for w, n in state.components:
            out += w * _fock_psi_sq(n, q_arr)
    return out if isinstance(q, np.ndarray) else float(out) if np.isscalar(q) else out


def search_halfwidth(state: QuantumStateModel) -> float:
    """Half-width of the numerically supported outcome window.

    8 + 4*sqrt(n + 1) for a Fock component of index n (largest component
    for mixtures); for Gaussian-family states, |mean| + 10 standard
    deviations.
    """
    validate_state(state)
    match state:
        case Fock(n=n):
            return 8.0 + 4.0 * math.sqrt(n + 1.0)
        case Mixture(components=comps):
            return max(8.0 + 4.0 * math.sqrt(n + 1.0) for _, n in comps)
        case _:
            best = 0.0
            for th in (0.0, math.pi / 2, math.pi / 4):
                mean, var = _gaussian_moments(state, th)
                best = max(best, abs(mean) + 10.0 * math.sqrt(var))
            return max(best, 12.0)


_INV_CDF_POINTS = 1 << 17
# a power of two, so that u * K and b / K are exact for every double u
_GUIDE_BUCKETS = 1 << 17
# the bucket start is the answer for 92% of Fock 0 and 1 draws and one node
# short for 8%; the other 0.7%, in tail buckets, are binary searched.  One
# step ran faster than 0, 2 or 4.
_GUIDE_STEPS = 1


@lru_cache(maxsize=64)
def _fock_inverse_cdf(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tabulated inverse CDF of Fock n: read-only ``(cdf, grid, guide)``.

    ``grid`` holds 2**17 evenly spaced q over the supported window
    (half-width 8 + 4*sqrt(n+1)) and ``cdf`` the trapezoid-rule CDF at
    those nodes, scaled to end at exactly 1.  ``guide`` is the guide table
    of Chen and Asau (1974; Devroye, Non-Uniform Random Variate Generation,
    III.2.4): ``guide[b]`` (int32, b = 0..K, K = 2**17) is the last node
    with ``cdf <= b / K``, where every u in [b/K, (b+1)/K) starts its
    search.  ``_fock_quantile`` reads the three to return exactly what
    ``np.interp(u, cdf, grid)`` returns.
    """
    half = 8.0 + 4.0 * math.sqrt(n + 1.0)
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
    """
    cdf, grid, guide = _fock_inverse_cdf(n)
    # j + 1 is clipped because u = 1 lands on the last node, which has no
    # right neighbour; the binary search and the node branch answer it
    j = guide.take((u * _GUIDE_BUCKETS).astype(np.intp)).astype(np.intp)
    for _ in range(_GUIDE_STEPS):
        j += cdf.take(j + 1, mode="clip") <= u
    right = cdf.take(j + 1, mode="clip")
    wide = np.flatnonzero(right <= u)
    if wide.size:
        j[wide] = np.searchsorted(cdf, u[wide], side="right") - 1
        right[wide] = cdf.take(j[wide] + 1, mode="clip")
    left = cdf.take(j)
    q = grid.take(j)
    with np.errstate(over="ignore", invalid="ignore"):
        slope = (grid.take(j + 1, mode="clip") - q) / (right - left)
        out = slope * (u - left) + q
    return np.where(u == left, q, out)


def _sample_fock(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    return _fock_quantile(n, rng.random(size))


def sample_quadrature(state, theta, rng: np.random.Generator, size=None):
    """Draw quadrature outcomes for ``state`` at LO phase ``theta``.

    ``theta`` may be an array (one phase per draw) for the Gaussian-family
    states; phase-invariant states ignore it.  Returns a scalar when
    ``size`` is None, else an ndarray of the requested size.
    """
    validate_state(state)
    if not isinstance(rng, np.random.Generator):
        raise ValueError("rng must be a numpy.random.Generator")
    n_draw = 1 if size is None else int(size)
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
            out = _sample_fock(n, rng, n_draw)
        case Mixture(components=comps):
            weights = np.array([w for w, _ in comps])
            picks = rng.choice(len(comps), size=n_draw, p=weights / weights.sum())
            out = np.empty(n_draw)
            for i, (_, n) in enumerate(comps):
                mask = picks == i
                cnt = int(mask.sum())
                if cnt:
                    out[mask] = _sample_fock(n, rng, cnt)
    return float(out[0]) if size is None else out


def bin_index(q, delta: float):
    """Index k of the bin (k*delta - delta/2, k*delta + delta/2] containing q."""
    if delta <= 0 or not math.isfinite(delta):
        raise ValueError("delta must be positive and finite")
    q_arr = np.asarray(q, dtype=float)
    k = np.ceil(q_arr / delta - 0.5).astype(np.int64)
    return int(k) if np.isscalar(q) else k


@lru_cache(maxsize=8)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _fock_bin_probabilities(n_max: int, delta: float, halfwidth: float,
                            nodes: int) -> np.ndarray:
    """Bin masses of Fock 0..n_max on the bins covering [-halfwidth, halfwidth].

    Returns P of shape (n_max + 1, bins), P[n, j] the probability that
    Fock n falls in bin j.  Gauss-Legendre with ``nodes`` points per bin;
    the integrand is analytic so the error is far below 1e-12 for the bin
    widths used here.  Each entry depends only on n and its bin, not on
    n_max or the window, so one table serves every state up to n_max.
    Each row is reduced over the nodes as the recurrence yields it, so the
    (n_max + 1) x bins x nodes table of |psi_n|^2 is never built.
    """
    k_max = int(math.ceil((halfwidth + delta) / delta))
    k_values = np.arange(-k_max, k_max + 1)
    edges_lo = k_values * delta - delta / 2.0
    x, w = _gl_nodes(nodes)
    # map [-1, 1] nodes into every bin at once
    pts = edges_lo[:, None] + (x[None, :] + 1.0) * (delta / 2.0)
    out = np.empty((n_max + 1, k_values.size))
    for n, psi in enumerate(_fock_psi(n_max, pts)):
        out[n] = (psi * psi) @ w
    return out * (delta / 2.0)


def _gaussian_max_bin(mean: float, var: float, delta: float) -> float:
    """Largest bin mass of a Gaussian; the mode bin or one of its neighbours."""
    sd = math.sqrt(var)
    kc = int(np.ceil(mean / delta - 0.5))
    best = 0.0
    for k in range(kc - 2, kc + 3):
        lo = (k * delta - delta / 2.0 - mean) / (sd * math.sqrt(2.0))
        hi = (k * delta + delta / 2.0 - mean) / (sd * math.sqrt(2.0))
        best = max(best, 0.5 * (math.erf(hi) - math.erf(lo)))
    return best


def _fock_components(state: Fock | Mixture) -> tuple[tuple[float, int], ...]:
    return ((1.0, state.n),) if isinstance(state, Fock) else state.components


def max_bin_probabilities(state_list, delta: float, *, theta: float = 0.0,
                          nodes: int = 80) -> list[float]:
    """Largest probability any single width-``delta`` bin can capture, per state.

    For Gaussian-family states this is a closed-form scan of the bins
    around the mean.  For Fock states and mixtures the bin masses are
    integrated by per-bin Gauss-Legendre quadrature, and the maximum over
    bins of the *mixed* distribution is returned, which is what bounds a
    guesser who sees the mixture, not its parts.  All Fock states and
    mixtures read one table, built for the highest photon number in
    ``state_list`` over the widest supported window (half-width
    8 + 4*sqrt(n+1)); the bins a state gains beyond its own window lie
    where its mass is negligible, so its maximum does not change.
    """
    state_list = list(state_list)
    for st in state_list:
        validate_state(st)
    theta = _reduce_theta(theta)
    if delta <= 0 or not math.isfinite(delta):
        raise ValueError("delta must be positive and finite")
    diagonal = [st for st in state_list if isinstance(st, (Fock, Mixture))]
    if diagonal:
        n_max = max(n for st in diagonal for _, n in _fock_components(st))
        halfwidth = max(search_halfwidth(st) for st in diagonal)
        probs = _fock_bin_probabilities(n_max, delta, halfwidth, nodes)
    out = []
    for st in state_list:
        if isinstance(st, (Fock, Mixture)):
            comps = _fock_components(st)
            weights = np.array([w for w, _ in comps])
            out.append(float(np.max(weights @ probs[[n for _, n in comps]])))
        else:
            out.append(_gaussian_max_bin(*_gaussian_moments(st, theta), delta))
    return out

