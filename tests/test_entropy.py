"""Tests for the min-entropy certification bounds.

Golden values were computed at 50-digit precision with mpmath and frozen
here; the bound-check sweep is verified against direct quadrature of
Hermite-function densities built independently of the package.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from sdiqrng import states
from sdiqrng.entropy import (
    BoundCheckReport,
    EntropyBound,
    equivalent_bit_rate,
    sdi_bound_check,
    vacuum_min_entropy,
)
from sdiqrng.exceptions import SecurityModelViolation

# frozen 50-digit references
H_AT_003846 = 5.5264233158594345        # -log2(erf(0.03846 / 2))
DELTA_ONE_BIT = 0.95387255240893974676  # 2 * erfinv(1/2)
DELTA_553 = 0.038364745880304880525     # bin width where the bound is 5.53
ERF_005 = 0.05637197779701663           # erf(0.05)


def oracle_fock_pdf(n, q):
    q = np.asarray(q, dtype=float)
    log_norm = -0.5 * (n * math.log(2.0) + math.lgamma(n + 1)) \
        - 0.25 * math.log(math.pi)
    return (np.exp(log_norm - 0.5 * q * q) * special.eval_hermite(n, q)) ** 2


def test_vacuum_bound_golden_values():
    b = vacuum_min_entropy(0.03846)
    assert b.h_min_bits == pytest.approx(H_AT_003846, rel=1e-13)
    assert abs(b.h_min_bits - 5.53) < 0.005
    assert b.guessing_probability == pytest.approx(math.erf(0.01923),
                                                   rel=1e-15)
    assert vacuum_min_entropy(DELTA_553).h_min_bits == pytest.approx(
        5.53, abs=1e-12)
    assert vacuum_min_entropy(DELTA_ONE_BIT).h_min_bits == pytest.approx(
        1.0, abs=1e-12)
    assert 0.0 <= vacuum_min_entropy(20.0).h_min_bits < 1e-12


def test_vacuum_bound_rejections():
    for bad in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            vacuum_min_entropy(bad)


def test_bound_consistency_and_monotonicity():
    deltas = np.geomspace(1e-4, 10.0, 60)
    h_prev = math.inf
    for d in deltas:
        b = vacuum_min_entropy(float(d))
        assert 2.0 ** (-b.h_min_bits) == pytest.approx(
            b.guessing_probability, rel=1e-12)
        assert b.h_min_bits < h_prev
        h_prev = b.h_min_bits


def test_bound_check_fock_ladder():
    report = sdi_bound_check([states.Fock(n) for n in range(1, 21)], 0.1)
    assert report.bound == pytest.approx(ERF_005, rel=1e-14)
    assert len(report.margins) == 20
    assert all(m > 0.0 for m in report.margins)
    assert report.worst_margin == min(report.margins)


def test_bound_is_tight_at_the_vacuum():
    # the vacuum is read as Fock 0, whose central bin mass is
    # (erf(delta/2) - erf(-delta/2)) / 2: exactly the bound
    for delta in (1e-4, 0.05, 0.3, 1.0, 2.0):
        report = sdi_bound_check([states.Vacuum(), states.Fock(3)], delta)
        assert report.margins[0] == 0.0


def test_even_mixture_margin_against_quadrature_oracle():
    """The 50/50 mixture of zero and one photon at delta = 0.1.

    Convexity gives p_max(mixture) <= 0.5 p_max(0) + 0.5 p_max(1), so the
    mixture margin is at least the mean of the pure margins.  Here the two
    pure maxima sit in different bins (center vs offset), which pushes the
    mixture margin above BOTH pure margins rather than between them.
    """
    delta = 0.1
    mix = states.Mixture(((0.5, 0), (0.5, 1)))
    report = sdi_bound_check([states.Vacuum(), states.Fock(1), mix], delta)
    m_vac, m_one, m_mix = report.margins

    def mix_pdf(q):
        return 0.5 * float(oracle_fock_pdf(0, q)) \
            + 0.5 * float(oracle_fock_pdf(1, q))

    masses = []
    for k in range(-140, 141):
        val, _ = integrate.quad(mix_pdf, k * delta - delta / 2.0,
                                k * delta + delta / 2.0, epsabs=1e-13)
        masses.append(val)
    oracle_margin = report.bound - max(masses)
    assert m_mix == pytest.approx(oracle_margin, abs=1e-11)
    assert m_mix > 0.0
    bound = report.bound
    p_mix_max = bound - m_mix
    p0_max, p1_max = bound - m_vac, bound - m_one
    assert p_mix_max <= 0.5 * p0_max + 0.5 * p1_max + 1e-14
    assert m_mix > max(m_vac, m_one)


def test_bound_property_over_state_grid():
    grid = [states.Fock(n) for n in range(0, 11)] + [
        states.Mixture(((0.3, 0), (0.7, 4))),
        states.Mixture(((0.2, 1), (0.3, 2), (0.5, 9))),
    ]
    for delta in (0.05, 0.3, 1.0):
        h_vac = vacuum_min_entropy(delta).h_min_bits
        for st in grid:
            p_max = states.max_bin_probabilities([st], delta)[0]
            assert -math.log2(p_max) >= h_vac - 1e-12


def test_bound_check_rejects_non_diagonal_states():
    with pytest.raises(ValueError, match="diagonal"):
        sdi_bound_check([states.Thermal(1.0)], 0.1)
    with pytest.raises(ValueError, match="diagonal"):
        sdi_bound_check([states.DisplacedSqueezed(0.5, 0.0, 1.0)], 0.1)


def test_bound_check_rejects_an_empty_state_list():
    with pytest.raises(ValueError, match="at least one state"):
        sdi_bound_check([], 0.1)
    with pytest.raises(ValueError, match="at least one state"):
        sdi_bound_check(iter(()), 0.1)


def test_violation_guard_wiring(monkeypatch):
    monkeypatch.setattr(states, "max_bin_probabilities",
                        lambda state_list, delta:
                        [math.erf(delta / 2.0) + 1e-6 for _ in state_list])
    with pytest.raises(SecurityModelViolation):
        sdi_bound_check([states.Fock(1)], 0.1)


def test_report_and_bound_dataclass_validation():
    rep = BoundCheckReport(delta=0.1, bound=0.056,
                           margins=(0.01, 0.002, 0.03))
    assert rep.worst_margin == 0.002
    with pytest.raises(ValueError):
        EntropyBound(delta=0.1, guessing_probability=0.0, h_min_bits=1.0)
    with pytest.raises(ValueError):
        EntropyBound(delta=0.1, guessing_probability=1.5, h_min_bits=1.0)
    with pytest.raises(ValueError):
        EntropyBound(delta=0.1, guessing_probability=0.5, h_min_bits=-0.1)


def test_equivalent_bit_rate_identity():
    assert equivalent_bit_rate(50e6, 5.4) == pytest.approx(270e6, rel=1e-15)
    assert equivalent_bit_rate(50e6, 0.0) == 0.0
    with pytest.raises(ValueError):
        equivalent_bit_rate(0.0, 5.4)
    with pytest.raises(ValueError):
        equivalent_bit_rate(50e6, -1.0)
