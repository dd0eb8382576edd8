"""Tests for the eavesdropping laboratory.

The two reduction orderings (average-then-project vs project-then-average)
are compared by trace distance; bin weights are verified against direct
quadrature of Hermite functions built with scipy, independent of the
package's recurrence; the Monte-Carlo attack statistics are checked
against closed-form Gaussian integrals evaluated in the test; and the
package's Kolmogorov-Smirnov p-value is held to ``scipy.stats``, which only
these tests import: bitwise on every branch but the one-sided Smirnov sum,
which is held to 30-digit mpmath.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, special
from scipy import stats as sps

from sdiqrng import attacklab
from sdiqrng.attacklab import (
    AttackReport,
    AttackScenario,
    BipartiteState,
    bin_projector,
    eve_reduced_path_I,
    eve_reduced_path_II,
    phase_average_A,
    random_pure_bipartite,
    run_attack,
    trace_distance,
)
from sdiqrng.states import _erf, bin_index

# closed-form double integral: Eve's per-round guess probability at
# r = 1.5, delta = 0.1 with the calibrated displacement distribution
EVE_GUESS_RATE_R15 = 0.24471597573969292


def oracle_fock_bin_mass(n, lo, hi):
    def pdf(q):
        log_norm = -0.5 * (n * math.log(2.0) + math.lgamma(n + 1)) \
            - 0.25 * math.log(math.pi)
        return (math.exp(log_norm - 0.5 * q * q)
                * special.eval_hermite(n, q)) ** 2
    val, _ = integrate.quad(pdf, lo, hi, epsabs=1e-13)
    return val


def correlated_tmsv(gamma, dim):
    """Truncated two-mode squeezed vacuum sqrt(1 - gamma^2) sum_n gamma^n
    |n>_E |n>_A, renormalized: its phase average over A is the Schmidt
    diagonal (1 - gamma^2) sum_n gamma^(2n) |n,n><n,n|."""
    n = np.arange(dim)
    psi = np.zeros(dim * dim, dtype=complex)
    psi[n * dim + n] = gamma ** n
    psi /= np.linalg.norm(psi)
    return BipartiteState(dim, dim, np.outer(psi, psi.conj()))


def oracle_eve_guess_rate(r, delta):
    """P(outcome lands in the bin of the displacement), by quadrature."""
    sq_sd = math.sqrt(math.exp(-2.0 * r) / 2.0)
    disp_sd = math.sqrt((1.0 - math.exp(-2.0 * r)) / 2.0)
    k_max = int(math.ceil(6.0 * disp_sd / delta)) + 2
    total = 0.0
    for k in range(-k_max, k_max + 1):
        lo, hi = k * delta - delta / 2.0, k * delta + delta / 2.0

        def f(d, lo=lo, hi=hi):
            return sps.norm.pdf(d, 0.0, disp_sd) * (
                sps.norm.cdf((hi - d) / sq_sd)
                - sps.norm.cdf((lo - d) / sq_sd))

        val, _ = integrate.quad(f, lo, hi, epsabs=1e-12)
        total += val
    return total


def test_tmsv_correlated_phase_average_is_schmidt_diagonal():
    gamma = 0.5
    dim = 16
    avg = phase_average_A(correlated_tmsv(gamma, dim))
    t = avg.tensor()
    weights = gamma ** (2 * np.arange(dim))
    weights /= weights.sum()
    for n in range(dim):
        for m in range(dim):
            for k in range(dim):
                for l in range(dim):
                    want = weights[n] if (k == l == n == m) else 0.0
                    assert abs(t[k, n, l, m] - want) < 1e-12


def test_phase_average_idempotent_and_trace_preserving():
    st = random_pure_bipartite(4, 5, np.random.default_rng(3))
    once = phase_average_A(st)
    twice = phase_average_A(once)
    assert np.max(np.abs(twice.rho - once.rho)) < 1e-15
    assert np.trace(once.rho).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim_e", range(2, 17))
def test_phase_average_is_a_valid_state_at_every_equivalence_size(dim_e):
    # random_pure_bipartite and phase_average_A skip BipartiteState's
    # checks: their output must pass them anyway, at every size verify can
    # draw (equivalence_dim_max is 8 by default and at most 16)
    rng = np.random.default_rng(dim_e)
    for dim_a in range(2, 17):
        pure = [random_pure_bipartite(dim_e, dim_a, rng) for _ in range(2)]
        for st in pure:
            assert (st.dim_e, st.dim_a) == (dim_e, dim_a)
            BipartiteState(dim_e, dim_a, st.rho)
        weights = rng.dirichlet(np.ones(2))
        mixed = BipartiteState(dim_e, dim_a,
                               sum(w * st.rho for w, st in zip(weights, pure)))
        for st in (*pure, mixed):
            rho = phase_average_A(st).rho
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
            assert abs(np.trace(rho) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(rho).min() >= -1e-10
            BipartiteState(dim_e, dim_a, rho)   # and the checks themselves pass


def test_separability_witness_for_averaged_tmsv():
    avg = phase_average_A(correlated_tmsv(0.5, 16))
    t = avg.tensor()
    # partial transpose on A: swap the A indices
    pt = np.transpose(t, (0, 3, 2, 1)).reshape(256, 256)
    eigs = np.linalg.eigvalsh(pt)
    assert eigs.min() > -1e-12


def test_product_state_gives_phase_independent_eve_matrix():
    dim = 4
    rho = np.zeros((dim * dim, dim * dim), dtype=complex)
    rho[0, 0] = 1.0
    st = BipartiteState(dim, dim, rho)
    a = eve_reduced_path_I(st, 0.0, 0.5, 0)
    b = eve_reduced_path_I(st, 1.3, 0.5, 0)
    np.testing.assert_allclose(a, b, atol=1e-14)
    w0 = math.erf(0.25)
    want = np.zeros((dim, dim), dtype=complex)
    want[0, 0] = w0
    np.testing.assert_allclose(a, want, atol=1e-12)


def test_path_equivalence_on_random_states():
    rng = np.random.default_rng(7)
    st = random_pure_bipartite(6, 6, rng)
    d = trace_distance(eve_reduced_path_I(st, 0.0, 0.5, 0),
                       eve_reduced_path_II(st, 0.0, 0.5, 0))
    assert d < 1e-10
    for dims in ((2, 8), (8, 2), (5, 7)):
        st = random_pure_bipartite(*dims, rng)
        for delta in (0.3, 0.5, 1.0):
            for k in (0, 1, -2):
                one = eve_reduced_path_I(st, 0.4, delta, k)
                two = eve_reduced_path_II(st, 0.4, delta, k)
                assert trace_distance(one, two) < 1e-10


def test_path_II_is_bitwise_the_per_phase_projector_average():
    # path II integrates the bin overlap once per average; each phase must
    # still see exactly the projector bin_projector builds for it, at each
    # of the 4 * dim_a phases
    rng = np.random.default_rng(19)
    for case in range(24):
        dim_e = int(rng.integers(1, 6))
        dim_a = int(rng.integers(1, 9))
        st = random_pure_bipartite(dim_e, dim_a, rng)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        delta = float(rng.uniform(0.05, 1.0))
        kmax = max(1, int(2.0 / delta))
        k = int(rng.integers(-kmax, kmax + 1))
        m_phases = 4 * dim_a
        want = np.zeros((dim_e, dim_e), dtype=complex)
        for j in range(m_phases):
            phi = theta + 2.0 * math.pi * j / m_phases
            want += np.einsum("knlm,mn->kl", st.tensor(),
                              bin_projector(dim_a, phi, delta, k))
        want /= m_phases
        got = eve_reduced_path_II(st, theta, delta, k)
        assert np.array_equal(got, want), (case, dim_e, dim_a)


def test_schmidt_diagonal_state_gives_diagonal_eve_matrix():
    avg = phase_average_A(correlated_tmsv(0.5, 12))
    for theta in (0.0, 0.9):
        eve = eve_reduced_path_I(avg, theta, 0.5, 1)
        off = eve - np.diag(np.diag(eve))
        assert np.max(np.abs(off)) < 1e-12


def test_eve_weights_match_quadrature_bin_masses():
    gamma = 0.5
    dim = 10
    avg = phase_average_A(correlated_tmsv(gamma, dim))
    weights = gamma ** (2 * np.arange(dim))
    weights /= weights.sum()
    for k in (0, 2):
        eve = eve_reduced_path_I(avg, 0.0, 0.5, k)
        for n in range(dim):
            mass = oracle_fock_bin_mass(n, k * 0.5 - 0.25, k * 0.5 + 0.25)
            assert eve[n, n].real == pytest.approx(weights[n] * mass,
                                                   abs=1e-10)
            assert abs(eve[n, n].imag) < 1e-14


def test_bin_projector_structure():
    p = bin_projector(6, 0.7, 0.5, 1)
    assert np.max(np.abs(p - p.conj().T)) < 1e-13
    eigs = np.linalg.eigvalsh(p)
    assert eigs.min() > -1e-12 and eigs.max() < 1.0 + 1e-12
    # bins tile the line: summed projectors approach the identity
    total = sum(bin_projector(6, 0.7, 0.5, k) for k in range(-16, 17))
    np.testing.assert_allclose(total, np.eye(6), atol=1e-10)
    with pytest.raises(ValueError, match="window"):
        bin_projector(4, 0.0, 1.0, 17)
    with pytest.raises(ValueError):
        bin_projector(4, 0.0, -1.0, 0)


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, a) == 0.0
    assert trace_distance(a, b) == pytest.approx(1.0, rel=1e-12)
    assert trace_distance(b, a) == pytest.approx(1.0, rel=1e-12)


def test_bipartite_state_validation():
    good = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    BipartiteState(2, 2, good)
    with pytest.raises(ValueError, match="Hermitian"):
        bad = good.copy()
        bad[0, 1] = 0.1
        BipartiteState(2, 2, bad)
    with pytest.raises(ValueError, match="trace"):
        BipartiteState(2, 2, 0.9 * good)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        BipartiteState(2, 2, np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    with pytest.raises(ValueError, match="4x4"):
        BipartiteState(2, 2, np.eye(3, dtype=complex) / 3.0)


def test_attack_fixed_lo_vacuum_mimicry():
    scenario = AttackScenario(r=1.5, delta=0.1, lo_mode="fixed",
                              n_rounds=1_000_000)
    report = run_attack(scenario, np.random.default_rng(11))
    assert report.measured_variance == pytest.approx(0.5, rel=0.01)
    assert report.mimicry_pvalue > 0.001
    assert report.vacuum_guess_bound == pytest.approx(math.erf(0.05),
                                                      rel=1e-14)
    oracle = oracle_eve_guess_rate(1.5, 0.1)
    assert oracle == pytest.approx(EVE_GUESS_RATE_R15, abs=1e-9)
    assert report.eve_guess_rate == pytest.approx(oracle, abs=0.0015)
    # far above what any vacuum-bounded adversary could score
    assert report.eve_guess_rate > 4.0 * report.vacuum_guess_bound


def test_attack_randomized_lo_defeats_eve():
    plain = AttackScenario(r=1.5, delta=0.1, lo_mode="uniform",
                           displaced=False, n_rounds=1_000_000)
    report = run_attack(plain, np.random.default_rng(13))
    assert report.measured_variance == pytest.approx(math.cosh(3.0) / 2.0,
                                                     rel=0.02)
    assert report.measured_variance > 0.5
    # squeezed light can no longer hide: uniformity test must reject
    assert report.mimicry_pvalue < 1e-6
    assert report.eve_guess_rate < 2.0 * report.vacuum_guess_bound

    displaced = AttackScenario(r=1.5, delta=0.1, lo_mode="uniform",
                               displaced=True, n_rounds=1_000_000)
    rep2 = run_attack(displaced, np.random.default_rng(17))
    want = math.cosh(3.0) / 2.0 + (1.0 - math.exp(-3.0)) / 4.0
    assert rep2.measured_variance == pytest.approx(want, rel=0.02)


def test_attack_without_squeezing_is_exactly_vacuum():
    for mode in ("fixed", "uniform"):
        scenario = AttackScenario(r=0.0, delta=0.1, lo_mode=mode,
                                  n_rounds=200_000)
        report = run_attack(scenario, np.random.default_rng(19))
        assert report.measured_variance == pytest.approx(0.5, rel=0.01)
        assert report.mimicry_pvalue > 0.001
        assert report.eve_guess_rate == pytest.approx(
            report.vacuum_guess_bound, abs=0.004)


def test_randomized_variance_grows_with_squeezing():
    prev = 0.5
    for r in (0.3, 1.0):
        scenario = AttackScenario(r=r, delta=0.1, lo_mode="uniform",
                                  displaced=False, n_rounds=100_000)
        report = run_attack(scenario, np.random.default_rng(23))
        assert report.measured_variance == pytest.approx(
            math.cosh(2.0 * r) / 2.0, rel=0.03)
        assert report.measured_variance > prev
        prev = report.measured_variance


def test_attack_determinism():
    scenario = AttackScenario(n_rounds=20_000)
    a = run_attack(scenario, np.random.default_rng(29))
    b = run_attack(scenario, np.random.default_rng(29))
    assert a.measured_variance == b.measured_variance
    assert a.eve_guess_rate == b.eve_guess_rate
    np.testing.assert_array_equal(a.samples, b.samples)


def test_attack_scenario_validation():
    for kwargs in (dict(r=-0.1), dict(r=6.5), dict(delta=0.0),
                   dict(lo_mode="banana"), dict(n_rounds=9_999)):
        with pytest.raises(ValueError):
            AttackScenario(**kwargs)


def ks_branch(n, x):
    """The branch of kstwo.sf(x, n) that Simard & L'Ecuyer pick for n > 140."""
    t = n * x
    if x >= 1.0:
        return "one"
    if x <= 0.5 / n or t <= 0.5:
        return "below-support"
    if t <= 1.0:
        return "ruben-gambino-low"
    if t >= n - 1:
        return "ruben-gambino-high"
    if x >= 0.5:
        return "smirnov-half"
    if t * x >= 370.0:
        return "zero"
    if t * x >= 2.2:
        return "smirnov"
    if n <= 100_000 and n * x ** 1.5 <= 1.4:
        return "durbin-matrix"
    if -math.pi ** 2 / 8 / (n * x * x) < -708:
        return "pelz-good-underflow"
    return "pelz-good"


# the relative distance from scipy.special.smirnov and from mpmath that
# attacklab._smirnov keeps; it measured 1e-13 at worst.  Against scipy it is
# checked below up to n = 10**6, there at the edge n x^2 = 2.2 alone
SMIRNOV_REL = 1e-12


def test_kstwo_sf_is_bitwise_scipy():
    hit = set()
    for n in (10_000, 50_000, 100_000, 100_001, 1_000_000, 10_000_000):
        edges = [0.5 / n, 1.0 / n, 1.0 - 1.0 / n, 0.5, 1.0,
                 math.sqrt(2.2 / n), math.sqrt(370.0 / n)]
        grid = np.geomspace(0.3 / n, 0.95, 24).tolist()
        for x in edges + [np.nextafter(e, side) for e in edges[:2]
                          for side in (0.0, 1.0)] + grid:
            branch = ks_branch(n, x)
            if n == 1_000_000 and branch == "smirnov" and x not in edges:
                continue  # smirnov(1e6, x) costs 1.5 s a call; the edge covers it
            hit.add(branch)
            got = attacklab._kstwo_sf(x, n)
            want = sps.kstwo.sf(x, n)
            if branch in ("smirnov", "smirnov-half") and n <= 1_000_000:
                # the numpy sum in place of scipy.special.smirnov; beyond
                # 10**6 both take scipy's large-n approximation, bitwise
                assert got == pytest.approx(want, rel=SMIRNOV_REL, abs=1e-300), (n, x)
            else:
                assert got == want, (n, x, branch, got, want)
    assert hit == {"one", "below-support", "ruben-gambino-low",
                   "ruben-gambino-high", "smirnov-half", "zero", "smirnov",
                   "durbin-matrix", "pelz-good-underflow", "pelz-good"}
    with pytest.raises(ValueError, match="140"):
        attacklab._kstwo_sf(0.1, 140)


@pytest.mark.parametrize("rounds, lo_mode, r", [
    *[(rounds, lo_mode, r) for rounds in (10_000, 100_000, 100_001)
      for lo_mode in ("fixed", "uniform") for r in (0.0, 0.3, 1.5)],
    (1_000_000, "fixed", 1.5),
    (1_000_000, "uniform", 0.0),
])
def test_mimicry_pvalue_is_bitwise_kstest(rounds, lo_mode, r):
    scenario = AttackScenario(r=r, delta=0.1, lo_mode=lo_mode, n_rounds=rounds)
    report = run_attack(scenario, np.random.default_rng(rounds + int(10 * r)))
    want = sps.kstest(report.samples, lambda v: 0.5 * (1.0 + _erf(v)))
    x = want.statistic
    if ks_branch(rounds, x) in ("smirnov", "smirnov-half"):
        assert report.mimicry_pvalue == pytest.approx(want.pvalue, rel=SMIRNOV_REL)
    else:
        assert report.mimicry_pvalue == want.pvalue
    outcomes = bin_index(report.samples, scenario.delta)
    assert report.lowest_bin == outcomes.min()
    np.testing.assert_array_equal(report.bin_counts,
                                  np.bincount(outcomes - outcomes.min()))


def mpmath_smirnov(n, x):
    """P(D_n+ >= x) from the Birnbaum-Tingey sum in 30-digit mpmath:
    x * sum over 0 <= j <= n (1 - x) of C(n, j) p**(j - 1) (1 - p)**(n - j),
    p = x + j / n."""
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        log_nfac = mpmath.loggamma(n + 1)
        total = mpmath.mpf(0)
        for j in range(int(mpmath.floor(n * (1 - x))) + 1):
            p = x + mpmath.mpf(j) / n
            if p < 1:
                total += mpmath.exp(log_nfac - mpmath.loggamma(j + 1)
                                    - mpmath.loggamma(n - j + 1)
                                    + (j - 1) * mpmath.log(p) + (n - j) * mpmath.log1p(-p))
        return x * total


# mpmath_smirnov(n, math.sqrt(c / n)) for c = 2.2, 10, 100 and 350, computed
# once (about 1 s a value at 10**4 and 10 s at 10**5)
SMIRNOV_MPMATH = {
    (10_000, 2.2): "0.012155103124364245673",
    (10_000, 10.0): "2.010081617324849196e-9",
    (10_000, 100.0): "8.3165566579751768279e-88",
    (10_000, 350.0): "3.4375484394657972597e-307",
    (100_000, 2.2): "0.012238865482348092254",
    (100_000, 10.0): "2.0466390117746270458e-9",
    (100_000, 100.0): "1.2966590395770758721e-87",
    (100_000, 350.0): "5.5017376483370629118e-305",
}


@pytest.mark.parametrize("n, c", sorted(SMIRNOV_MPMATH))
def test_smirnov_matches_mpmath(n, c):
    want = mpmath.mpf(SMIRNOV_MPMATH[n, c])
    got = attacklab._smirnov(n, math.sqrt(c / n))
    assert abs(got - want) <= SMIRNOV_REL * want


@pytest.mark.parametrize("n, x", [
    (141, 0.2), (141, 0.5), (141, 0.9), (200, 0.7), (1000, 0.06), (1000, 0.5)])
def test_smirnov_matches_mpmath_at_small_n(n, x):
    # the table of Stirling remainders (j < 16) and both KS branches
    # that call it: n x^2 >= 2.2, and x >= 0.5
    want = mpmath_smirnov(n, x)
    assert abs(attacklab._smirnov(n, x) - want) <= SMIRNOV_REL * want


@pytest.mark.parametrize("lo_mode", ["fixed", "uniform"])
def test_run_attack_memory_is_a_few_arrays_of_rounds(lo_mode):
    # the draws (displacements, in uniform mode the phases, the normals) are
    # whole arrays; every other step works on 2**16 rounds at a time
    n = 1_000_000
    scenario = AttackScenario(r=1.5, delta=0.1, lo_mode=lo_mode, n_rounds=n)
    tracemalloc.start()
    try:
        run_attack(scenario, np.random.default_rng(31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n + (4 << 20)
