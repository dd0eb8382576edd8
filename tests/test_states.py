"""Tests for the quadrature state models.

Reference values come from routes independent of the implementation: a
from-scratch Hermite-function density built on scipy.special.eval_hermite
(the package uses its own recurrence), adaptive quadrature of that density,
and closed-form Gaussian integrals checked at 50 digits with mpmath and
frozen below.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special
from scipy import stats as sps

from lattice_oracle import fock_bin_probabilities, lattice_edges, max_bin_probabilities
from sdiqrng import states
from sdiqrng.states import (
    DisplacedSqueezed,
    Fock,
    Mixture,
    Thermal,
    Vacuum,
    bin_index,
    sample_quadrature,
    search_halfwidth,
)

# 50-digit references: 1/sqrt(pi) and erf(1/4)
INV_SQRT_PI = 0.56418958354775628695
ERF_QUARTER = 0.27632639016823693299


def oracle_fock_pdf(n, q):
    """|psi_n(q)|^2 via eval_hermite, never touching the package recurrence."""
    q = np.asarray(q, dtype=float)
    log_norm = -0.5 * (n * math.log(2.0) + math.lgamma(n + 1)) \
        - 0.25 * math.log(math.pi)
    h = special.eval_hermite(n, q)
    return (np.exp(log_norm - 0.5 * q * q) * h) ** 2


def oracle_bin_mass(n, lo, hi):
    val, err = integrate.quad(lambda x: float(oracle_fock_pdf(n, x)), lo, hi,
                              epsabs=1e-13, limit=200)
    assert err < 1e-11
    return val


def test_fifty_digit_constants_match_libm():
    assert math.erf(0.25) == pytest.approx(ERF_QUARTER, rel=1e-15)
    assert 1.0 / math.sqrt(math.pi) == pytest.approx(INV_SQRT_PI, rel=1e-15)


def test_vacuum_pdf_is_the_halfwidth_gaussian():
    q = np.linspace(-4.0, 4.0, 9)
    want = np.exp(-q * q) / math.sqrt(math.pi)
    np.testing.assert_allclose(states._fock_psi_sq(0, q), want, rtol=1e-14)
    assert states._fock_psi_sq(0, 0.0) == pytest.approx(INV_SQRT_PI, rel=1e-14)


def test_single_photon_density_vanishes_at_origin():
    assert states._fock_psi_sq(1, 0.0) == 0.0


def test_antisqueezed_direction_has_gaussian_peak():
    # measured a quarter turn from the squeezing axis the variance is e^{2r}/2
    model = DisplacedSqueezed(r=0.5, squeeze_angle=0.0, displacement=0j)
    var = math.exp(1.0) / 2.0
    draws = sample_quadrature(model, math.pi / 2.0,
                              np.random.default_rng(11), size=200_000)
    assert np.var(draws) == pytest.approx(var, rel=0.02)


def test_pdf_normalization_every_variant():
    # every photon number the tests use, over its supported window
    for n in (0, 1, 3, 12):
        half = search_halfwidth(n)
        val, _ = integrate.quad(lambda x: states._fock_psi_sq(n, x),
                                -half, half, limit=300)
        assert abs(val - 1.0) < 1e-9, n


def _highest_fock_density():
    """q and |psi_n(q)|^2 at the highest supported Fock index, on the
    inverse-CDF table's nodes over its window."""
    n = states._MAX_FOCK
    half = search_halfwidth(n)
    q = np.linspace(-half, half, states._INV_CDF_POINTS)
    return n, q, states._fock_psi_sq(n, q)


# psi_0 = pi**-1/4 exp(-q^2/2) is subnormal beyond |q| ~ 37.6 and 0 beyond
# 38.6, and so is every psi_n the recurrence builds from it, while Fock n
# reaches sqrt(2n + 1): the highest supported index must lie within that
def test_highest_fock_index_keeps_its_mass():
    _, q, pdf = _highest_fock_density()
    assert abs(np.trapezoid(pdf, q) - 1.0) <= 1e-12


def test_highest_fock_index_keeps_its_second_moment():
    n, q, pdf = _highest_fock_density()
    assert np.trapezoid(q * q * pdf, q) == pytest.approx(n + 0.5, rel=1e-9)


def test_fock_pdf_matches_independent_hermite_route():
    # the wavefunction recurrence that the inverse-CDF tables, the sup
    # bound and the lattice oracle are built on, against eval_hermite
    q = np.linspace(-6.5, 6.5, 201)
    for n in (1, 2, 5, 9, 14, 20):
        np.testing.assert_allclose(states._fock_psi_sq(n, q),
                                   oracle_fock_pdf(n, q),
                                   rtol=1e-11, atol=1e-13)


def test_fock_pdf_phase_invariant():
    # Fock draws ignore the LO phase: the same uniforms at every theta
    base = sample_quadrature(Fock(4), 0.0, np.random.default_rng(3), size=1000)
    for theta in (0.9, 2.2, 6.1):
        again = sample_quadrature(Fock(4), theta, np.random.default_rng(3), size=1000)
        assert np.array_equal(again, base)


def test_mixture_pdf_is_the_weighted_sum():
    # a mixture's bin masses are the weighted sum of its components' rows
    mix = Mixture(((0.2, 0), (0.3, 2), (0.5, 7)))
    delta = 0.3
    table = fock_bin_probabilities(7, lattice_edges(delta, search_halfwidth(7)))
    want = 0.2 * table[0] + 0.3 * table[2] + 0.5 * table[7]
    assert max_bin_probabilities([mix], delta)[0] == pytest.approx(float(np.max(want)),
                                                                   rel=1e-14)


def test_thermal_variance_equals_fock_mixture_oracle():
    # thermal photon weights p_n = nbar^n / (1+nbar)^{n+1}; each Fock level
    # contributes quadrature variance n + 1/2, so the total is nbar + 1/2
    nbar = 1.0
    n = np.arange(400)
    p = nbar ** n / (1.0 + nbar) ** (n + 1)
    oracle_var = float(np.sum(p * (n + 0.5)))
    assert oracle_var == pytest.approx((2.0 * nbar + 1.0) / 2.0, rel=1e-12)
    draws = sample_quadrature(Thermal(nbar), 0.8,
                              np.random.default_rng(5), size=1_000_000)
    assert abs(np.var(draws) - 1.5) <= 0.02


def test_vacuum_sampler_first_two_moments():
    x = sample_quadrature(Vacuum(), 1.2, np.random.default_rng(21),
                          size=1_000_000)
    assert abs(x.mean()) < 0.003
    y = sample_quadrature(Vacuum(), 0.0, np.random.default_rng(22),
                          size=1_000_000)
    assert abs(np.var(y) - 0.5) < 0.005


def test_gaussian_family_sampler_ks_distance():
    x = sample_quadrature(Thermal(0.7), 0.0, np.random.default_rng(31),
                          size=1_000_000)
    ks = sps.kstest(x, sps.norm(scale=math.sqrt(1.2)).cdf)
    assert ks.statistic < 0.01

    model = DisplacedSqueezed(r=0.6, squeeze_angle=0.2,
                              displacement=0.7 + 0.3j)
    theta = 1.0
    rel = theta - 0.2
    var = (math.exp(-1.2) * math.cos(rel) ** 2
           + math.exp(1.2) * math.sin(rel) ** 2) / 2.0
    mean = math.sqrt(2.0) * ((0.7 + 0.3j) * np.exp(-1j * theta)).real
    y = sample_quadrature(model, theta, np.random.default_rng(32),
                          size=1_000_000)
    ks = sps.kstest(y, sps.norm(loc=mean, scale=math.sqrt(var)).cdf)
    assert ks.statistic < 0.01


def _equal_mass_edges(pdf_fn, half, n_bins):
    """Quantile bin edges of a numerically tabulated density."""
    grid = np.linspace(-half, half, 1 << 15)
    pdf = pdf_fn(grid)
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5
                                           * np.diff(grid))))
    cdf /= cdf[-1]
    probs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return np.interp(probs, cdf, grid)


@pytest.mark.parametrize("model", [Vacuum(), Fock(2)])
def test_sampler_histogram_chi2_against_oracle_pdf(model):
    # 100 equal-probability bins built from the independent density
    if isinstance(model, Vacuum):
        pdf_fn = lambda g: np.exp(-g * g) / math.sqrt(math.pi)  # noqa: E731
    else:
        pdf_fn = lambda g: oracle_fock_pdf(model.n, g)  # noqa: E731
    edges = _equal_mass_edges(pdf_fn, search_halfwidth(getattr(model, "n", 0)), 100)
    x = sample_quadrature(model, 0.0, np.random.default_rng(41),
                          size=1_000_000)
    observed = np.bincount(np.searchsorted(edges, x), minlength=100)
    expected = np.full(100, x.size / 100.0)
    p = sps.chisquare(observed, expected).pvalue
    assert p > 0.001


@pytest.mark.parametrize("n", [0, 1, 2, 7, 20, 200, 512])
def test_fock_quantile_equals_interp_oracle(n):
    cdf, grid, guide = states._fock_inverse_cdf(n)
    buckets = states._GUIDE_BUCKETS
    # uniforms, every node and both its neighbours, every guide bucket edge
    u = np.concatenate([
        np.random.default_rng(n).random(1_000_000),
        cdf, np.nextafter(cdf, -1.0), np.nextafter(cdf, 2.0),
        np.arange(buckets + 1) / buckets, [0.0, np.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u <= 1.0)]
    assert np.array_equal(states._fock_quantile(n, u), np.interp(u, cdf, grid))

    # the inputs reach the binary search: nodes more than _GUIDE_STEPS past
    # the start of their bucket
    j = np.searchsorted(cdf, u, side="right") - 1
    start = guide[(u * buckets).astype(np.intp)]
    assert np.any(j - start > states._GUIDE_STEPS)
    # and nodes where the interpolation formula is NaN (an infinite slope
    # below a subnormal cdf gap, or 0/0 past the last node), which np.interp
    # answers with the node's own q
    nxt = np.minimum(j + 1, cdf.size - 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        formula = (grid[nxt] - grid[j]) / (cdf[nxt] - cdf[j]) * (u - cdf[j])
    assert np.any(np.isnan(formula))
    if n == 200:
        assert np.any(np.isnan(formula) & (j < cdf.size - 1))


@pytest.mark.parametrize("n", [0, 1, 20])
def test_sliced_fock_quantile_equals_interp_across_slice_edges(n):
    # _fock_quantile maps u a slice at a time: a size that is no multiple of
    # the slice, with 0 and 1 at the ends of the array and of every slice
    cdf, grid, _ = states._fock_inverse_cdf(n)
    width = states._QUANTILE_SLICE
    u = np.random.default_rng(n).random(3 * width + 5)
    for edge in (0, width - 1, width, 2 * width - 1, 2 * width, 3 * width):
        u[edge] = float(edge % 2)
    u[-2:] = (0.0, 1.0)
    assert np.array_equal(states._fock_quantile(n, u), np.interp(u, cdf, grid))
    assert np.array_equal(states._fock_quantile(n, u[:7]), np.interp(u[:7], cdf, grid))


def test_fock_and_mixture_draws_match_interp_reference():
    seed, size = 20240611, 200_000
    for state in (Fock(3), Mixture(((0.2, 0), (0.5, 1), (0.3, 4)))):
        got = sample_quadrature(state, 0.0, np.random.default_rng(seed), size=size)

        # the draw order: component picks, then one uniform block per
        # component in order, each mapped through np.interp
        rng = np.random.default_rng(seed)
        if isinstance(state, Fock):
            cdf, grid, _ = states._fock_inverse_cdf(state.n)
            want = np.interp(rng.random(size), cdf, grid)
        else:
            weights = np.array([w for w, _ in state.components])
            picks = rng.choice(len(weights), size=size, p=weights / weights.sum())
            want = np.empty(size)
            for i, (_, n) in enumerate(state.components):
                mask = picks == i
                cdf, grid, _ = states._fock_inverse_cdf(n)
                want[mask] = np.interp(rng.random(int(mask.sum())), cdf, grid)
        assert np.array_equal(got, want)


def test_max_bin_probability_vacuum_closed_form():
    assert max_bin_probabilities([Vacuum()], 0.5)[0] == pytest.approx(
        ERF_QUARTER, rel=1e-13)
    for delta in (0.05, 0.2, 1.0):
        assert max_bin_probabilities([Vacuum()], delta)[0] == pytest.approx(
            math.erf(delta / 2.0), rel=1e-13)


def test_single_photon_max_bin_strictly_below_vacuum():
    assert max_bin_probabilities([Fock(1)], 0.5)[0] < ERF_QUARTER


def test_vacuum_maximal_over_fock_grid():
    for delta in (0.05, 0.5, 1.0):
        vac = max_bin_probabilities([Vacuum()], delta)[0]
        for n in range(21):
            val = max_bin_probabilities([Fock(n)], delta)[0]
            if n == 0:
                assert val == pytest.approx(vac, rel=1e-10)
            else:
                assert val < vac


@pytest.mark.parametrize("n,delta", [(1, 0.3), (3, 0.7), (7, 0.25)])
def test_max_bin_matches_quadrature_oracle(n, delta):
    k_max = int(math.ceil((8.0 + 4.0 * math.sqrt(n + 1)) / delta)) + 1
    masses = [oracle_bin_mass(n, k * delta - delta / 2.0,
                              k * delta + delta / 2.0)
              for k in range(-k_max, k_max + 1)]
    got = max_bin_probabilities([Fock(n)], delta)[0]
    assert got == pytest.approx(max(masses), abs=1e-11)


def test_shared_fock_table_matches_one_state_calls():
    # one table for the highest n on the widest window gives every state
    # exactly the maximum its own, narrower table gives
    batch = [Fock(12), Vacuum(), Fock(0), Mixture(((0.3, 0), (0.7, 4))), Fock(3)]
    for delta in (0.05, 0.3, 1.0):
        alone = [max_bin_probabilities([st], delta)[0] for st in batch]
        assert max_bin_probabilities(batch, delta) == alone
    assert max_bin_probabilities([], 0.1) == []
    # the Gaussian-family states have no bin masses, alone or in a batch
    for st in (Thermal(0.4), DisplacedSqueezed(0.3, 0.2, 0.5 + 0.1j)):
        for states_in in ([st], [Fock(3), st]):
            with pytest.raises(ValueError, match="photon-number-diagonal"):
                max_bin_probabilities(states_in, 0.3)


def gauss_legendre_bin_table(n_max, delta, halfwidth, nodes=200, offset=0.0):
    """Fock bin masses by per-bin Gauss-Legendre quadrature: ``nodes``
    points in every bin of the window, reduced over the nodes one row at a
    time (in chunks of bins, to keep the node array small)."""
    k_max = int(math.ceil((halfwidth + delta) / delta))
    edges_lo = offset + np.arange(-k_max, k_max + 1) * delta - delta / 2.0
    x, w = np.polynomial.legendre.leggauss(nodes)
    out = np.empty((n_max + 1, edges_lo.size))
    for start in range(0, edges_lo.size, 1024):
        lo = edges_lo[start:start + 1024]
        pts = lo[:, None] + (x[None, :] + 1.0) * (delta / 2.0)
        for n, psi in enumerate(states._fock_psi(n_max, pts)):
            out[n, start:start + lo.size] = (psi * psi) @ w
    return out * (delta / 2.0)


@pytest.mark.parametrize("delta", [0.01, 0.1, 1.0])
def test_closed_form_bin_table_matches_gauss_legendre(delta):
    rows = list(range(21)) + [100, 200]
    halfwidth = search_halfwidth(200)
    got = fock_bin_probabilities(200, lattice_edges(delta, halfwidth))
    want = gauss_legendre_bin_table(200, delta, halfwidth)
    assert got.shape == want.shape
    np.testing.assert_allclose(got[rows], want[rows], rtol=0.0, atol=5e-14)
    assert np.max(np.abs(got[rows].sum(axis=1) - 1.0)) <= 1e-15
    assert got[rows].min() >= -1e-15


@pytest.mark.parametrize("offset", [0.37, -0.81])
def test_shifted_lattice_matches_gauss_legendre(offset):
    # the lattice oracle at an offset, as the sup bound's dominance test reads it
    delta = 0.1
    halfwidth = search_halfwidth(64)
    got = fock_bin_probabilities(64, lattice_edges(delta, halfwidth, offset * delta))
    want = gauss_legendre_bin_table(64, delta, halfwidth, offset=offset * delta)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=5e-14)


def test_bin_index_right_closed_convention():
    # bin k covers (k*delta - delta/2, k*delta + delta/2]
    assert bin_index(0.25, 0.5) == 0
    assert bin_index(0.25 + 1e-9, 0.5) == 1
    assert bin_index(-0.25, 0.5) == -1
    assert bin_index(0.0, 0.5) == 0
    arr = bin_index(np.array([-0.6, -0.1, 0.4, 1.3]), 0.5)
    np.testing.assert_array_equal(arr, [-1, 0, 1, 3])


def test_search_halfwidth_growth():
    assert search_halfwidth(3) == pytest.approx(16.0)
    assert search_halfwidth(8) == pytest.approx(20.0)
    assert search_halfwidth(0) >= 7.0


def test_invalid_states_rejected():
    # each model checks itself as it is built: no invalid state exists
    for model, args, match in (
        (Fock, (-1,), "non-negative integer"),
        (Fock, (2.5,), "non-negative integer"),
        (Fock, (513,), "beyond supported maximum 512"),
        (Thermal, (-0.1,), "mean_photons"),
        (Thermal, (float("nan"),), "mean_photons"),
        (DisplacedSqueezed, (float("inf"),), "r must be finite"),
        (DisplacedSqueezed, (13.0,), "too large"),
        (DisplacedSqueezed, (1.0, float("nan")), "squeeze_angle"),
        (DisplacedSqueezed, (1.0, 0.0, complex(0.0, float("inf"))), "displacement"),
        (Mixture, ((),), "at least one component"),
        (Mixture, (((0.4, 0), (0.5, 1)),), "sum to"),
        (Mixture, (((-0.1, 0), (1.1, 1)),), "positive and finite"),
        (Mixture, (((0.5, 0), (0.5 + 1e-10, 1)),), "sum to"),
        (Mixture, (((0.5, 0), (0.5, -1)),), "non-negative integer"),
    ):
        with pytest.raises(ValueError, match=match):
            model(*args)


def test_bad_query_arguments_rejected():
    with pytest.raises(ValueError):
        bin_index(0.3, 0.0)
    with pytest.raises(ValueError):
        sample_quadrature(Vacuum(), 0.0, rng=object(), size=1)
    with pytest.raises(ValueError):
        sample_quadrature(Vacuum(), 0.0, np.random.default_rng(0), size=-1)
    with pytest.raises(ValueError, match="unknown state model"):
        sample_quadrature(0.5, 0.0, np.random.default_rng(0), size=1)
    with pytest.raises(TypeError):   # one draw is an array of size 1
        sample_quadrature(Vacuum(), 0.0, np.random.default_rng(0))
