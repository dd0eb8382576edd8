"""Tests for the randomness test battery.

Golden p-values are the worked examples from NIST SP 800-22 Rev 1a,
recomputed at double precision from the published formulas. Where the
example vectors are short they exercise exact code paths, so the
comparisons are pinned tight.
"""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erfc, gammaincc
from scipy.stats import norm

from sdiqrng.stats import (
    UNIMPLEMENTED_TESTS,
    _pattern_counts,
    approximate_entropy_test,
    block_frequency_test,
    cumulative_sums_test,
    frequency_test,
    longest_run_test,
    run_battery,
    runs_test,
    serial_test,
    spectral_test,
)


def bitvec(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


# NIST SP 800-22 Rev 1a worked-example inputs and recomputed p-values.
FREQ_P = 0.5270892568655381          # 2.1.8, eps=1011010101
BLOCK_P = 0.8012519569012009         # 2.2.8, eps=0110011010, M=3
RUNS_P = 0.14723225536366571         # 2.3.8, eps=1001101011
LONGEST_P = 0.18059797678555792      # 2.4.8, 128-bit example
CUSUM_P = 0.4116586191538023         # 2.13.8, eps=1011010111
SPECTRAL_P = 0.4681599098544281      # 2.6.8 vector, 95% threshold
APEN_P = 0.2619611048816654          # 2.12.8, eps=0100110101, m=3
SERIAL_P1 = 0.8087921354109989       # 2.11.8, eps=0011011101, m=3
SERIAL_P2 = 0.6703200460356398

LONGEST_RUN_VECTOR = (
    "11001100000101010110110001001100111000000000001001"
    "00110101010001000100111101011010000000110101111100"
    "1100111001101101100010110010"
)


def test_worked_example_goldens():
    assert frequency_test(bitvec("1011010101")) == pytest.approx(FREQ_P, rel=1e-12)
    assert block_frequency_test(bitvec("0110011010"), 3) == pytest.approx(BLOCK_P, rel=1e-12)
    assert runs_test(bitvec("1001101011")) == pytest.approx(RUNS_P, rel=1e-12)
    v = bitvec(LONGEST_RUN_VECTOR)
    assert v.size == 128
    assert longest_run_test(v) == pytest.approx(LONGEST_P, rel=1e-12)
    fwd, bwd = cumulative_sums_test(bitvec("1011010111"))
    assert fwd == pytest.approx(CUSUM_P, rel=1e-12)
    assert spectral_test(bitvec("1001010011")) == pytest.approx(SPECTRAL_P, rel=1e-12)
    assert approximate_entropy_test(bitvec("0100110101"), 3) == pytest.approx(APEN_P, rel=1e-12)
    p1, p2 = serial_test(bitvec("0011011101"), 3)
    assert p1 == pytest.approx(SERIAL_P1, rel=1e-12)
    assert p2 == pytest.approx(SERIAL_P2, rel=1e-12)


def test_frequency_matches_definitional_formula():
    rng = np.random.default_rng(41)
    bits = rng.integers(0, 2, 5000).astype(np.uint8)
    s = np.sum(2 * bits.astype(np.int64) - 1)
    expect = erfc(abs(s) / math.sqrt(2 * bits.size))
    assert frequency_test(bits) == pytest.approx(float(expect), rel=1e-12)


def oracle_cusum(bits, reverse):
    """Direct evaluation of the cumulative-sums p-value from the
    partial-sum maximum and the two normal-CDF series."""
    x = 2 * bits.astype(np.int64) - 1
    if reverse:
        x = x[::-1]
    n = x.size
    z = np.max(np.abs(np.cumsum(x)))
    total = 1.0
    for k in range((-n // z + 1) // 4, (n // z - 1) // 4 + 1):
        total -= norm.cdf((4 * k + 1) * z / math.sqrt(n))
        total += norm.cdf((4 * k - 1) * z / math.sqrt(n))
    for k in range((-n // z - 3) // 4, (n // z - 1) // 4 + 1):
        total += norm.cdf((4 * k + 3) * z / math.sqrt(n))
        total -= norm.cdf((4 * k + 1) * z / math.sqrt(n))
    return total


def test_cusum_oracle_and_direction_identity():
    rng = np.random.default_rng(42)
    bits = rng.integers(0, 2, 3000).astype(np.uint8)
    fwd, bwd = cumulative_sums_test(bits)
    assert fwd == pytest.approx(oracle_cusum(bits, False), rel=1e-10)
    assert bwd == pytest.approx(oracle_cusum(bits, True), rel=1e-10)
    # backward scan is exactly the forward scan of the reversed string
    rfwd, _ = cumulative_sums_test(bits[::-1])
    assert bwd == pytest.approx(rfwd, rel=1e-13)


def oracle_psi_sq(bits, m):
    """Pattern chi-square statistic via dict counting with wraparound."""
    if m == 0:
        return 0.0
    n = bits.size
    ext = np.concatenate([bits, bits[: m - 1]])
    counts = {}
    for i in range(n):
        key = tuple(ext[i : i + m])
        counts[key] = counts.get(key, 0) + 1
    return (2 ** m / n) * sum(c * c for c in counts.values()) - n


def test_serial_matches_dict_counting_oracle():
    rng = np.random.default_rng(43)
    bits = rng.integers(0, 2, 400).astype(np.uint8)
    for m in (2, 3, 4):
        d1 = oracle_psi_sq(bits, m) - oracle_psi_sq(bits, m - 1)
        d2 = (
            oracle_psi_sq(bits, m)
            - 2 * oracle_psi_sq(bits, m - 1)
            + oracle_psi_sq(bits, m - 2)
        )
        e1 = gammaincc(2 ** (m - 2), d1 / 2)
        e2 = gammaincc(2 ** (m - 3), d2 / 2)
        p1, p2 = serial_test(bits, m)
        assert p1 == pytest.approx(float(e1), rel=1e-10)
        assert p2 == pytest.approx(float(e2), rel=1e-10)


def oracle_apen(bits, m):
    n = bits.size

    def phi(mm):
        if mm == 0:
            return 0.0
        ext = np.concatenate([bits, bits[: mm - 1]])
        counts = {}
        for i in range(n):
            key = tuple(ext[i : i + mm])
            counts[key] = counts.get(key, 0) + 1
        return sum((c / n) * math.log(c / n) for c in counts.values())

    chi2 = 2.0 * n * (math.log(2.0) - (phi(m) - phi(m + 1)))
    return float(gammaincc(2 ** (m - 1), chi2 / 2))


def test_approximate_entropy_matches_dict_counting_oracle():
    rng = np.random.default_rng(44)
    bits = rng.integers(0, 2, 300).astype(np.uint8)
    for m in (2, 3):
        assert approximate_entropy_test(bits, m) == pytest.approx(
            oracle_apen(bits, m), rel=1e-10
        )


def test_pattern_counts_match_window_matmul_oracle():
    rng = np.random.default_rng(47)
    for n, ms in ((100_000, (1, 2, 10, 11, 16, 17)), (7, (1, 3, 6))):
        bits = rng.integers(0, 2, n).astype(np.int64)
        for m in ms:
            wrapped = np.concatenate([bits, bits[: m - 1]])
            weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
            expected = np.bincount(sliding_window_view(wrapped, m) @ weights,
                                   minlength=1 << m)
            assert np.array_equal(_pattern_counts(bits, m), expected), (n, m)


def oracle_longest_run_128(bits):
    """Longest-run chi-square for the n=128 regime (M=8, categories
    <=1, 2, 3, >=4) using the published category probabilities."""
    probs = [0.2148, 0.3672, 0.2305, 0.1875]
    counts = [0, 0, 0, 0]
    for blk in bits.reshape(-1, 8):
        longest = run = 0
        for b in blk:
            run = run + 1 if b else 0
            longest = max(longest, run)
        counts[min(max(longest, 1), 4) - 1] += 1
    nblk = bits.size // 8
    chi2 = sum(
        (c - nblk * p) ** 2 / (nblk * p) for c, p in zip(counts, probs)
    )
    return float(gammaincc(3 / 2, chi2 / 2))


def test_longest_run_matches_blockwise_oracle():
    rng = np.random.default_rng(45)
    bits = rng.integers(0, 2, 128).astype(np.uint8)
    assert longest_run_test(bits) == pytest.approx(
        oracle_longest_run_128(bits), rel=1e-10
    )


def test_auto_block_sizes_match_explicit():
    rng = np.random.default_rng(46)
    bits = rng.integers(0, 2, 4096).astype(np.uint8)
    # caps: apen min(10, log2(n)-6), serial min(16, log2(n)-3)
    assert approximate_entropy_test(bits) == approximate_entropy_test(bits, 6)
    assert serial_test(bits) == serial_test(bits, 9)


def test_runs_prerequisite_failure_gives_zero():
    assert runs_test(np.ones(100, dtype=np.uint8)) == 0.0
    assert runs_test(np.zeros(100, dtype=np.uint8)) == 0.0


def test_per_test_input_validation():
    with pytest.raises(ValueError):
        frequency_test(np.array([], dtype=np.uint8))
    with pytest.raises(ValueError):
        frequency_test(np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(ValueError):
        frequency_test(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        block_frequency_test(bitvec("01100110"), 1)
    with pytest.raises(ValueError):
        longest_run_test(np.zeros(100, dtype=np.uint8))
    with pytest.raises(ValueError):
        serial_test(bitvec("0101010101"), 1)


def test_battery_input_validation():
    rng = np.random.default_rng(48)
    bits = rng.integers(0, 2, 2000).astype(np.uint8)
    with pytest.raises(ValueError):
        run_battery(bits, 200, alpha=0.6)
    with pytest.raises(ValueError):
        run_battery(bits, 200, alpha=0.0)
    with pytest.raises(ValueError):
        run_battery(bits, 99)
    with pytest.raises(ValueError):
        run_battery(bits, 1000)  # only 2 strings
    with pytest.raises(ValueError):
        run_battery(np.zeros((10, 100), dtype=np.uint8), 100)


def test_battery_skip_table():
    rng = np.random.default_rng(49)
    r = run_battery(rng.integers(0, 2, 10 * 100).astype(np.uint8), 100)
    ran = {x.name for x in r.results}
    assert ran == {
        "frequency",
        "runs",
        "cumulative-sums-forward",
        "cumulative-sums-backward",
        "serial-1",
        "serial-2",
    }
    assert set(r.skipped) == {
        "block-frequency",
        "longest-run",
        "spectral",
        "approximate-entropy",
    }
    r = run_battery(rng.integers(0, 2, 10 * 500).astype(np.uint8), 500)
    assert set(r.skipped) == {"spectral"}
    r = run_battery(rng.integers(0, 2, 10 * 1000).astype(np.uint8), 1000)
    assert r.skipped == ()


def test_proportion_bound_goldens():
    # bound = (1-alpha) - 3*sqrt(alpha*(1-alpha)/n_strings)
    rng = np.random.default_rng(50)
    r = run_battery(rng.integers(0, 2, 100 * 100).astype(np.uint8), 100)
    assert r.results[0].proportion_bound == pytest.approx(0.9601503768868014, rel=1e-12)
    r = run_battery(rng.integers(0, 2, 1000 * 100).astype(np.uint8), 100)
    assert r.results[0].proportion_bound == pytest.approx(0.9805607203664686, rel=1e-12)


def test_all_zero_stream_fails_frequency_with_proportion_zero():
    r = run_battery(np.zeros(10 * 1000, dtype=np.uint8), 1000)
    by_name = {x.name: x for x in r.results}
    assert by_name["frequency"].proportion == 0.0
    assert not by_name["frequency"].passed
    assert not r.all_passed
    assert "FAIL" in r.to_text()


def test_prng_battery_passes():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, 20 * 100_000).astype(np.uint8)
    r = run_battery(bits, 100_000)
    assert len(r.results) == 10
    assert {x.name for x in r.results} == {
        "frequency",
        "block-frequency",
        "runs",
        "longest-run",
        "spectral",
        "approximate-entropy",
        "cumulative-sums-forward",
        "cumulative-sums-backward",
        "serial-1",
        "serial-2",
    }
    assert r.all_passed
    for res in r.results:
        assert res.passed
        assert res.proportion >= res.proportion_bound
        assert res.proportion <= 1.0
        assert res.uniformity_p > 1e-4


def test_report_rendering():
    rng = np.random.default_rng(51)
    bits = rng.integers(0, 2, 12 * 2000).astype(np.uint8)
    r = run_battery(bits, 2000)
    txt = r.to_text()
    lines = txt.splitlines()
    assert lines[0] == "strings: 12 x 2000 bits, alpha=0.01"
    assert lines[-1] in ("overall: pass", "overall: FAIL")
    ni = [l for l in lines if l.startswith("not implemented: ")]
    assert len(ni) == 1
    for name in UNIMPLEMENTED_TESTS:
        assert name in ni[0]


def test_unimplemented_list_is_stable():
    assert UNIMPLEMENTED_TESTS == (
        "binary-matrix-rank",
        "non-overlapping-template",
        "overlapping-template",
        "maurer-universal",
        "linear-complexity",
        "random-excursions",
        "random-excursions-variant",
    )
