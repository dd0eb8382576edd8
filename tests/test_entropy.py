"""Tests for the min-entropy certification bounds.

Golden values were computed at 50-digit precision with mpmath and frozen
here; the proven sup bound is held to a dense grid of Hermite-function
densities built independently of the package, and to the exact bin masses
of the lattice oracle at shifted bin offsets.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from lattice_oracle import max_bin_probabilities
from sdiqrng import entropy, states
from sdiqrng.config import VerifySettings
from sdiqrng.entropy import (
    Certificate,
    equivalent_bit_rate,
    sdi_bound_check,
    vacuum_guessing_probability,
)

# frozen 50-digit references
H_AT_003846 = 5.5264233158594345        # -log2(erf(0.03846 / 2))
DELTA_ONE_BIT = 0.95387255240893974676  # 2 * erfinv(1/2)
DELTA_553 = 0.038364745880304880525     # bin width where the bound is 5.53
ERF_005 = 0.05637197779701663           # erf(0.05)
SUP_FOCK_ONE = 0.41510749742059470334   # 2 / (e sqrt(pi)), sup psi_1^2 at q = 1


def grid_margin(n):
    """The Lipschitz margin ``sdi_bound_check`` adds to Fock n's grid maximum."""
    return entropy._SUP_GRID_STEP / math.sqrt(math.pi) * (
        math.sqrt(n / 2.0) + math.sqrt((n + 1) / 2.0))


def vacuum_h_min(delta):
    """The certified bits per sample at bin width ``delta``, as calibrate
    derives them."""
    return -math.log2(vacuum_guessing_probability(delta))


def oracle_fock_pdf(n, q):
    q = np.asarray(q, dtype=float)
    log_norm = -0.5 * (n * math.log(2.0) + math.lgamma(n + 1)) \
        - 0.25 * math.log(math.pi)
    return (np.exp(log_norm - 0.5 * q * q) * special.eval_hermite(n, q)) ** 2


def test_vacuum_bound_golden_values():
    assert vacuum_h_min(0.03846) == pytest.approx(H_AT_003846, rel=1e-13)
    assert abs(vacuum_h_min(0.03846) - 5.53) < 0.005
    assert vacuum_guessing_probability(0.03846) == pytest.approx(
        math.erf(0.01923), rel=1e-15)
    assert vacuum_h_min(DELTA_553) == pytest.approx(5.53, abs=1e-12)
    assert vacuum_h_min(DELTA_ONE_BIT) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= vacuum_h_min(20.0) < 1e-12


def test_vacuum_bound_rejections():
    for bad in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            vacuum_guessing_probability(bad)


def test_bound_consistency_and_monotonicity():
    deltas = np.geomspace(1e-4, 10.0, 60)
    h_prev = math.inf
    for d in deltas:
        p, h = vacuum_guessing_probability(float(d)), vacuum_h_min(float(d))
        assert 0.0 < p <= 1.0
        assert 2.0 ** -h == pytest.approx(p, rel=1e-12)
        assert h < h_prev
        h_prev = h


def test_bound_check_fock_ladder():
    # S bounds every sup psi_n^2 of Fock 1..20 from above, by at most the
    # margin at n = 20, and leaves a positive margin at delta = 0.1
    sup = sdi_bound_check(20)
    q = np.linspace(0.0, math.sqrt(41.0) + 1.0, 200001)
    true_sup = max(float(np.max(oracle_fock_pdf(n, q))) for n in range(1, 21))
    assert true_sup == pytest.approx(SUP_FOCK_ONE, rel=1e-9)
    assert 0.0 <= sup - true_sup <= grid_margin(20)
    assert ERF_005 - 0.1 * sup > 0.0


def test_bound_is_tight_at_the_vacuum():
    # the vacuum's central bin (erf(delta/2) - erf(-delta/2)) / 2, as the
    # attack histogram computes it, is exactly the bound; S stays below the
    # vacuum's peak 1/sqrt(pi), so delta * S undercuts it as delta -> 0
    for delta in (1e-4, 0.05, 0.3, 1.0, 2.0):
        central = np.diff(states._erf(np.array([-0.5, 0.5]) * delta)) / 2.0
        assert central[0] == math.erf(delta / 2.0)
        assert max_bin_probabilities([states.Vacuum()], delta)[0] == pytest.approx(
            math.erf(delta / 2.0), rel=1e-13)
    assert sdi_bound_check(512) < 1.0 / math.sqrt(math.pi)


def test_even_mixture_margin_against_quadrature_oracle():
    """The 50/50 mixture of zero and one photon at delta = 0.1.

    Convexity gives p_max(mixture) <= 0.5 p_max(0) + 0.5 p_max(1), so the
    mixture margin is at least the mean of the pure margins.  Here the two
    pure maxima sit in different bins (center vs offset), which pushes the
    mixture margin above BOTH pure margins rather than between them.
    """
    delta = 0.1
    bound = math.erf(delta / 2.0)
    mix = states.Mixture(((0.5, 0), (0.5, 1)))
    p0_max, p1_max, p_mix_max = max_bin_probabilities(
        [states.Vacuum(), states.Fock(1), mix], delta)

    def mix_pdf(q):
        return 0.5 * float(oracle_fock_pdf(0, q)) \
            + 0.5 * float(oracle_fock_pdf(1, q))

    masses = []
    for k in range(-140, 141):
        val, _ = integrate.quad(mix_pdf, k * delta - delta / 2.0,
                                k * delta + delta / 2.0, epsabs=1e-13)
        masses.append(val)
    assert p_mix_max == pytest.approx(max(masses), abs=1e-11)
    assert p_mix_max <= 0.5 * p0_max + 0.5 * p1_max + 1e-14
    assert bound - p_mix_max > max(bound - p0_max, bound - p1_max)
    # the one-photon part is within delta * S, the vacuum part within the bound
    assert p_mix_max <= 0.5 * bound + 0.5 * delta * sdi_bound_check(1)


def test_bound_property_over_state_grid():
    grid = [states.Fock(n) for n in range(0, 11)] + [
        states.Mixture(((0.3, 0), (0.7, 4))),
        states.Mixture(((0.2, 1), (0.3, 2), (0.5, 9))),
    ]
    for delta in (0.05, 0.3, 1.0):
        h_vac = vacuum_h_min(delta)
        for st in grid:
            p_max = max_bin_probabilities([st], delta)[0]
            assert -math.log2(p_max) >= h_vac - 1e-12


@pytest.mark.parametrize("delta", VerifySettings().deltas + (2.0,))
def test_sup_bound_dominates_every_lattice_offset(delta):
    # delta * S against the exact best-bin mass of Fock 1..64 on the lattice
    # centred at 0 and at 8 random offsets
    sup = sdi_bound_check(64)
    assert delta * sup < math.erf(delta / 2.0)
    fock = [states.Fock(n) for n in range(1, 65)]
    rng = np.random.default_rng(int(delta * 1000))
    for offset in np.concatenate(([0.0], rng.uniform(0.0, delta, 8))):
        best = max(max_bin_probabilities(fock, delta, float(offset)))
        assert best <= delta * sup


def test_bound_check_rejects_an_empty_fock_range():
    for n_max in (0, -3, states._MAX_FOCK + 1):
        with pytest.raises(ValueError, match="n_max must lie in"):
            sdi_bound_check(n_max)


def test_violation_guard_wiring(monkeypatch):
    # a recurrence that overshoots psi_n shows in S: doubled wavefunctions
    # quadruple the grid maxima, and the margin at delta = 0.1 goes negative
    true_rows = states._fock_psi
    monkeypatch.setattr(states, "_fock_psi",
                        lambda n_max, q: (2.0 * psi for psi in true_rows(n_max, q)))
    sup = sdi_bound_check(3)
    assert sup >= 4.0 * SUP_FOCK_ONE
    assert ERF_005 - 0.1 * sup < 0.0


def test_certificate_validation():
    cert = Certificate(5.53, 2.0 ** -100, "h_min_override")
    assert (cert.h_min_bits, cert.epsilon, cert.provenance) == (
        5.53, 2.0 ** -100, "h_min_override")
    with pytest.raises(AttributeError):
        cert.h_min_bits = 8.0   # frozen
    # the smallest positive h and a subnormal epsilon still certify
    Certificate(5e-324, 5e-324, "h_min_override")
    for h in (0.0, -0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="h_min_bits must be positive and finite"):
            Certificate(h, 2.0 ** -100, "h_min_override")
    for eps in (0.0, -0.1, 0.5, 0.7, 2.0 ** -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 0.5\)"):
            Certificate(5.53, eps, "h_min_override")


def test_equivalent_bit_rate_identity():
    assert equivalent_bit_rate(50e6, 5.4) == pytest.approx(270e6, rel=1e-15)
    assert equivalent_bit_rate(50e6, 0.0) == 0.0
    with pytest.raises(ValueError):
        equivalent_bit_rate(0.0, 5.4)
    with pytest.raises(ValueError):
        equivalent_bit_rate(50e6, -1.0)
