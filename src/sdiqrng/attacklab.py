"""Adversarial sanity lab: finite-dimensional eavesdropper algebra and
Monte-Carlo attack scenarios.

Bipartite states live on E (eavesdropper) tensor A (measured mode) in the
photon-number basis, index ``k * dim_a + n`` for |k>_E |n>_A.  Two
constructions of the eavesdropper's post-measurement operator must agree
exactly; their equality is the algebraic heart of the phase-randomization
security argument:

* path I: average the A phase first (kill all n != m coherences on A),
  then project A onto one digitizer bin at a fixed LO phase;
* path II: project A onto the phase-rotated bin for each of M = 4 * dim_a
  uniformly spaced LO phases and average the results.

Both reduce to ``sum_n rho[k, n, l, n] * w_n`` with the same weights
``w_n = integral of |psi_n|^2 over the bin``, because the discrete phase
average annihilates every coherence: each nonzero n - m lies strictly
between -M and M, so its M phase factors sum to zero (finite Fourier
orthogonality).  Any M >= dim_a would do; 4 * dim_a leaves margin.  The
projector is applied once inside the trace (Born rule), which keeps the
identity exact in the truncated space.

The Monte-Carlo scenarios mirror the two operating modes of the generator:
an eavesdropper who knows a fixed LO phase can mimic vacuum statistics with
randomly displaced squeezed states while predicting outcomes far better
than the vacuum guessing bound; randomizing the LO phase destroys the
advantage and inflates the measured variance to cosh(2r)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entropy import vacuum_guessing_probability
from .states import _erf, _fock_psi, bin_index, search_halfwidth

__all__ = [
    "BipartiteState",
    "random_pure_bipartite",
    "phase_average_A",
    "bin_projector",
    "eve_reduced_path_I",
    "eve_reduced_path_II",
    "trace_distance",
    "AttackScenario",
    "AttackReport",
    "run_attack",
]


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix on E (x) A with dims recorded; validated on creation."""

    dim_e: int
    dim_a: int
    rho: np.ndarray

    def __post_init__(self):
        d = self.dim_e * self.dim_a
        rho = np.asarray(self.rho)
        if self.dim_e < 1 or self.dim_a < 1:
            raise ValueError("dimensions must be positive")
        if rho.shape != (d, d):
            raise ValueError(f"rho must be {d}x{d}, got {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("rho is not Hermitian within 1e-12")
        if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-12:
            raise ValueError("trace of rho must be 1 within 1e-10")
        eigs = np.linalg.eigvalsh(rho)
        if eigs.min() < -1e-10:
            raise ValueError(f"rho has negative eigenvalue {eigs.min()}")

    def tensor(self) -> np.ndarray:
        """View as rho[k, n, l, m] for E indices k,l and A indices n,m."""
        return self.rho.reshape(self.dim_e, self.dim_a, self.dim_e, self.dim_a)


def _valid_state(dim_e: int, dim_a: int, rho: np.ndarray) -> BipartiteState:
    """A ``BipartiteState`` whose ``rho`` is valid by construction, built
    without the checks and their eigendecomposition."""
    state = object.__new__(BipartiteState)
    for name, value in (("dim_e", dim_e), ("dim_a", dim_a), ("rho", rho)):
        object.__setattr__(state, name, value)
    return state


def random_pure_bipartite(dim_e: int, dim_a: int,
                          rng: np.random.Generator) -> BipartiteState:
    """Haar-ish random pure state |psi><psi| on E (x) A: a unit vector's
    projector, so it is valid by construction."""
    d = dim_e * dim_a
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return _valid_state(dim_e, dim_a, np.outer(psi, psi.conj()))


def phase_average_A(state: BipartiteState) -> BipartiteState:
    """Average over a uniformly random LO-referenced phase rotation of A.

    Every A coherence ``n != m`` is zeroed.  The average of a valid state is
    valid by construction (Hermitian, trace kept, and PSD, each A block a
    principal submatrix of ``rho``).
    """
    t = state.tensor() * np.eye(state.dim_a)[None, :, None, :]
    d = state.dim_e * state.dim_a
    return _valid_state(state.dim_e, state.dim_a, t.reshape(d, d))


_GL_NODES = 200  # Gauss-Legendre points per bin in the overlap integrals


@lru_cache(maxsize=1)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _bin_overlap(dim: int, delta: float, k: int) -> np.ndarray:
    """Real overlap integral over bin k of psi_n(q) psi_m(q), n, m < dim.

    Gauss-Legendre with ``_GL_NODES`` points; bins outside the supported
    window of Fock dim - 1 (``search_halfwidth``) are rejected.
    """
    if delta <= 0 or not math.isfinite(delta):
        raise ValueError("delta must be positive and finite")
    halfwidth = search_halfwidth(dim - 1)
    center = k * delta
    if abs(center) - delta / 2.0 > halfwidth:
        raise ValueError(
            f"bin {k} at |q|~{abs(center):.1f} lies outside the supported window "
            f"+-{halfwidth:.1f} for dim={dim}")
    x, w = _gl_nodes(_GL_NODES)
    pts = center - delta / 2.0 + (x + 1.0) * (delta / 2.0)
    psi = np.empty((dim, _GL_NODES))
    for j, row in enumerate(_fock_psi(dim - 1, pts)):
        psi[j] = row
    return (psi * w) @ psi.T * (delta / 2.0)


def bin_projector(dim: int, theta: float, delta: float, k: int) -> np.ndarray:
    """Matrix of the digitizer-bin projector on A in the truncated Fock basis.

    Element (n, m) is exp(1j*theta*(n-m)) * integral over bin k of
    psi_n(q) psi_m(q) dq, with bin k = (k*delta - delta/2, k*delta + delta/2].
    Bins outside the numerically supported window are rejected, as in
    ``_bin_overlap``.
    """
    n = np.arange(dim)
    phase = np.exp(1j * theta * (n[:, None] - n[None, :]))
    return _bin_overlap(dim, delta, k) * phase


def _contract_with_projector(state: BipartiteState, proj: np.ndarray) -> np.ndarray:
    """tr_A[rho (Id_E (x) P)]: the (unnormalized) operator Eve holds."""
    return np.einsum("knlm,mn->kl", state.tensor(), proj)


def eve_reduced_path_I(state: BipartiteState, theta: float, delta: float,
                       k: int) -> np.ndarray:
    """Phase-average A first, then project onto bin k at the fixed phase."""
    averaged = phase_average_A(state)
    proj = bin_projector(state.dim_a, theta, delta, k)
    return _contract_with_projector(averaged, proj)


def eve_reduced_path_II(state: BipartiteState, theta: float, delta: float,
                        k: int) -> np.ndarray:
    """Project onto the phase-shifted bin for M = 4 * dim_a uniform phases,
    then average.

    The real bin overlap does not depend on the phase, so it is integrated
    once; each of the M projectors is that overlap times its own phase
    matrix, exactly the product ``bin_projector`` returns.
    """
    m_phases = 4 * state.dim_a
    overlap = _bin_overlap(state.dim_a, delta, k)
    n = np.arange(state.dim_a)
    diff = n[:, None] - n[None, :]
    acc = np.zeros((state.dim_e, state.dim_e), dtype=complex)
    for j in range(m_phases):
        phi = theta + 2.0 * math.pi * j / m_phases
        acc += _contract_with_projector(state, overlap * np.exp(1j * phi * diff))
    return acc / m_phases


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) * trace norm of (a - b)."""
    return 0.5 * float(np.sum(np.linalg.svd(a - b, compute_uv=False)))


@dataclass(frozen=True)
class AttackScenario:
    """Displaced-squeezed-state source controlled by the eavesdropper.

    ``r`` is the squeezing along the known quadrature; Eve draws a fresh
    displacement each round from N(0, (1 - exp(-2r))/2) so that with a
    fixed, known LO phase the outcomes are marginally exactly vacuum.
    ``lo_mode`` is "fixed" (Alice's phase known to Eve) or "uniform"
    (fresh random phase per round).  ``displaced=False`` removes the
    displacement (pure squeezed vacuum).
    """

    r: float = 1.5
    delta: float = 0.1
    lo_mode: str = "fixed"
    n_rounds: int = 1_000_000
    displaced: bool = True

    def __post_init__(self):
        if not 0.0 <= self.r <= 6.0:
            raise ValueError("r must lie in [0, 6]")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.lo_mode not in ("fixed", "uniform"):
            raise ValueError(f"lo_mode must be 'fixed' or 'uniform', got {self.lo_mode!r}")
        if self.n_rounds < 10_000:
            raise ValueError("n_rounds must be >= 10000 for statistical claims")


@dataclass(frozen=True)
class AttackReport:
    """Monte-Carlo outcome of one scenario.

    ``samples`` holds the measured quadratures.  The outcome of a round is
    the bin index of its quadrature, the digitizer reading Eve tries to
    guess; ``bin_counts[i]`` counts the rounds whose outcome is
    ``lowest_bin + i``, from the lowest outcome to the highest.
    """

    measured_variance: float
    eve_guess_rate: float
    mimicry_pvalue: float
    vacuum_guess_bound: float
    samples: np.ndarray
    lowest_bin: int
    bin_counts: np.ndarray


# rounds per step of the reductions over the whole sample; a few temporaries
# of this length stay small beside the sample itself
_CHUNK = 2 ** 16


def run_attack(scenario: AttackScenario, rng: np.random.Generator) -> AttackReport:
    """Simulate the scenario and report variance, guess rate and mimicry.

    Eve's guess each round is the bin holding her displacement; the guess
    succeeds when the measured outcome lands in that bin.  The mimicry
    p-value is the two-sided Kolmogorov-Smirnov test of the outcomes
    against the exact vacuum CDF (1 + erf(q)) / 2, with ``math.erf``
    (``states._erf``) and the KS distribution computed in this module, so
    that no scipy module loads.

    Memory: the draws are whole arrays of n rounds (the displacements, in
    ``uniform`` mode the LO phases, and the normals, in that order), and
    the quadratures are formed in place in the normals' array.  Everything
    else -- the guess count, the outcome histogram and the KS distance -- is
    a reduction over ``_CHUNK`` rounds at a time, so the peak is three
    arrays of n rounds in ``uniform`` mode and two in ``fixed`` mode.
    """
    n = scenario.n_rounds
    r = scenario.r
    delta = scenario.delta
    sq_var = math.exp(-2.0 * r) / 2.0
    disp_var = (1.0 - math.exp(-2.0 * r)) / 2.0
    d = (rng.normal(0.0, math.sqrt(disp_var), n)
         if (scenario.displaced and disp_var > 0) else np.zeros(n))
    chunks = [slice(a, a + _CHUNK) for a in range(0, n, _CHUNK)]

    # q = d + z * sd in place in the normals z: the same bits, added in
    # either order; in uniform mode d cos(theta) is added a chunk at a time
    if scenario.lo_mode == "fixed":
        q = rng.normal(0.0, 1.0, n)
        q *= math.sqrt(sq_var)
        q += d
    else:
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        q = rng.normal(0.0, 1.0, n)
        for s in chunks:
            cos = np.cos(theta[s])
            var = (np.exp(-2.0 * r) * cos ** 2 + np.exp(2.0 * r) * np.sin(theta[s]) ** 2) / 2.0
            q[s] *= np.sqrt(var)
            cos *= d[s]
            q[s] += cos
        del theta

    # ceil is monotone, so the extreme quadratures give the extreme outcomes
    lowest = bin_index(q.min(), delta)
    counts = np.zeros(bin_index(q.max(), delta) - lowest + 1, dtype=np.int64)
    hits = 0
    for s in chunks:
        outcomes = bin_index(q[s], delta)
        hits += np.count_nonzero(bin_index(d[s], delta) == outcomes)
        outcomes -= lowest
        counts += np.bincount(outcomes, minlength=counts.size)
    del d
    return AttackReport(
        measured_variance=float(np.var(q)),
        eve_guess_rate=hits / n,
        mimicry_pvalue=_kstwo_sf(_ks_distance(np.sort(q)), n),
        vacuum_guess_bound=vacuum_guessing_probability(delta),
        samples=q,
        lowest_bin=lowest,
        bin_counts=counts)


def _ks_distance(ordered: np.ndarray) -> np.float64:
    """Two-sided KS statistic max(D+, D-) of the sorted sample ``ordered``
    against the vacuum CDF (1 + erf(q)) / 2."""
    n = ordered.size
    d_plus = d_minus = np.float64(-np.inf)
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        cdf = _erf(ordered[a:b])
        cdf += 1.0
        cdf *= 0.5
        # the slices [a, b] and [a + 1, b + 1] of the steps arange(0.0, n + 1) / n
        d_plus = max(d_plus, (np.arange(a + 1.0, b + 1.0) / n - cdf).max())
        d_minus = max(d_minus, (cdf - np.arange(float(a), float(b)) / n).max())
    return d_plus if d_plus > d_minus else d_minus


# _kstwo_sf and its helpers are ported from scipy.stats._ksstats (SciPy 1.17,
# BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy
# Developers; all rights reserved).  They keep only the branches of scipy's
# _kolmogn(n, x, cdf=False) that n > 140 reaches and repeat its arithmetic in
# the same order and types -- the long-double scale constants, np.sum and the
# closing Python sum included -- so the result is bitwise equal to
# scipy.stats.kstwo.sf(x, n) on every branch but one: where scipy calls
# scipy.special.smirnov, _smirnov sums the same series in numpy, within
# 1e-12 relative of it (see _smirnov).  Branch choice: Simard & L'Ecuyer,
# "Computing the two-sided Kolmogorov-Smirnov distribution", J. Stat. Softw.
# 39(11), 2011.  Durbin matrix: Marsaglia, Tsang & Wang, "Evaluating
# Kolmogorov's distribution", J. Stat. Softw. 8(18), 2003.  Large n: Pelz &
# Good, JRSS B 38(2), 1976.  Pomeranz's recursion serves only n <= 140 and is
# left out.

_EP128 = np.ldexp(np.longdouble(1), 128)
_EM128 = np.ldexp(np.longdouble(1), -128)
_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6
# Stirling series coefficients B_2j / (2j (2j - 1)), j = 8..1
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _kstwo_sf(x, n: int) -> float:
    """P(D_n >= x) for the two-sided KS statistic D_n of n > 140 samples."""
    if n <= 140:
        raise ValueError(f"n must exceed 140, got {n}")
    x = np.asarray(x, dtype=np.float64)  # the 0-d operand scipy's kolmogn passes
    if x >= 1.0:
        return 0.0
    t = n * x
    if x <= 0.5 / n or t <= 0.5:
        return 1.0
    if t <= 1.0:  # Ruben-Gambino: P(D_n <= x) = n!/n^n (2t - 1)^n
        rn = 1.0 / n
        log_nfac = (np.log(n) / 2 - n + _LOG_2PI / 2
                    + rn * np.polyval(_STIRLING_COEFFS, rn / n))
        prob = np.exp(log_nfac + n * np.log(2 * t - 1))
        return float(np.clip(1.0 - prob, 0.0, 1.0))
    if t >= n - 1:  # Ruben-Gambino: P(D_n >= x) = 2 (1 - x)^n
        return float(np.clip(2 * (1.0 - x) ** n, 0.0, 1.0))
    nxsquared = t * x
    if x < 0.5 and nxsquared >= 370.0:
        return 0.0
    if x >= 0.5 or nxsquared >= 2.2:
        return float(np.clip(2 * _smirnov(n, float(x)), 0.0, 1.0))
    if n <= 100000 and n * x ** 1.5 <= 1.4:
        cdf = _kolmogorov_cdf_dmtw(n, x)
    else:
        cdf = _kolmogorov_cdf_pelz_good(n, x)
    return float(np.clip(1.0 - cdf, 0.0, 1.0))


# log(m!) - (m log m - m + log(2 pi m) / 2) for m = 1..15, where the Stirling
# series of _stirlerr is not yet accurate to double precision; m = 0 is unused
_STIRLERR_SMALL = np.array([0.0] + [
    math.lgamma(m + 1.0) - (m * math.log(m) - m + 0.5 * math.log(2.0 * math.pi * m))
    for m in range(1, 16)])


def _stirlerr(m: np.ndarray) -> np.ndarray:
    """log(m!) - (m log m - m + log(2 pi m) / 2) at the whole numbers m >= 1."""
    inv2 = 1.0 / (m * m)
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv2 / 1188) * inv2) * inv2)
           * inv2) / m
    small = m < 16
    out[small] = _STIRLERR_SMALL[m[small].astype(np.intp)]
    return out


def _smirnov(n: int, x: float) -> float:
    """P(D_n+ >= x) for the one-sided KS statistic of n > 140 samples and
    1/n < x < 1 - 1/n: what scipy.special.smirnov(n, x) computes.

    Up to n = 10**6 it is the Birnbaum-Tingey sum over 0 <= j < n (1 - x),

        x * sum_j C(n, j) p_j**(j - 1) (1 - p_j)**(n - j),   p_j = x + j / n,

    whose term j is (x / p_j) times the Binomial(n, p_j) mass at j.  Each
    mass is taken in log space in Loader's saddle-point form, Stirling
    remainders plus the deviance terms bd0(j, n p_j) and bd0(n - j, n (1 - p_j)),
    each computed with log1p: no log-binomial of size n log 2 is formed, so
    the logs carry absolute errors of a few ulps of n x and the terms agree
    with 30-digit mpmath to about 1e-13 relative.  The terms are summed
    against the largest so far, ``_CHUNK`` at a time.  Above n = 10**6 it is
    scipy's own large-n approximation exp(-(6 n x + 1)**2 / (18 n)), in
    scipy's arithmetic.

    References: Birnbaum & Tingey, "One-sided confidence contours for
    probability distribution functions", Ann. Math. Stat. 22(4), 1951;
    Loader, "Fast and accurate computation of binomial probabilities", 2000.
    """
    if n > 1_000_000:
        return math.exp(-(6.0 * n * x + 1) ** 2 / 18.0 / n)
    t = n * x
    top = n * math.log1p(-x)   # j = 0: (1 - x)**n
    total = 1.0
    stirlerr_n = _stirlerr(np.array([float(n)]))[0]
    half_log = 0.5 * math.log(n / (2.0 * math.pi))
    last = math.ceil(n - t) - 1   # the largest j with 1 - p_j > 0
    for first in range(1, last + 1, _CHUNK):
        j = np.arange(first, min(first + _CHUNK, last + 1), dtype=np.float64)
        k = n - j
        logs = (stirlerr_n - _stirlerr(j) - _stirlerr(k)
                + half_log - 0.5 * (np.log(j) + np.log(k))
                - (t - j * np.log1p(t / j))      # bd0(j, n p_j)
                - (-k * np.log1p(-t / k) - t)    # bd0(n - j, n (1 - p_j))
                + np.log(t / (j + t)))           # x / p_j
        peak = logs.max()
        if peak > top:
            total *= math.exp(top - peak)
            top = peak
        total += float(np.exp(logs - top).sum())
    return math.exp(top + math.log(total))


def _kolmogorov_cdf_dmtw(n: int, d):
    """P(D_n <= d) from the Durbin matrix, n/2 < n d < n."""
    # With d = (k - h)/n, k an integer and 0 <= h < 1, the answer is the
    # (k, k) entry of n!/n^n H^n for an m x m matrix H, m = 2k - 1; powers
    # of 2^128 are split off into the exponents as the product grows.
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    H = np.zeros([m, m])
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(m)
    nn = n
    expnt = 0
    Hexpnt = 0
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += 128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):
        p = i * p / n
        if abs(p) < _EM128:
            p *= _EP128
            expnt -= 128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _kolmogorov_cdf_pelz_good(n: int, x):
    """Pelz-Good approximation to P(D_n <= x), 0 < x < 1."""
    # The Li-Chien/Korolyuk series K0 + K1/n^0.5 + K2/n + K3/n^1.5 in
    # z = x sqrt(n), each term transformed by the Jacobi theta functional
    # equation into a series that converges fast for small z.
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < -708:
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # Horner scheme for sum c_m q^(m^2) over odd m = 2k - 1
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the extra K2 and K3 terms, summed over all integers k
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    return sum(K0to3)
