"""Tests for the randomness test battery.

Golden p-values are the worked examples from NIST SP 800-22 Rev 1a,
recomputed at double precision from the published formulas. Where the
example vectors are short they exercise exact code paths, so the
comparisons are pinned tight.
"""

import math
import sys

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erfc, gammaincc
from scipy.stats import norm

from sdiqrng.stats import (
    _LONGEST_RUN_TABLES,
    UNIMPLEMENTED_TESTS,
    BatteryReport,
    StatisticSummary,
    _cusum_pvalue,
    _fold,
    _pattern_counts,
    _uniformity_p,
    _walk_excursions,
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


def test_backward_excursion_identity():
    rng = np.random.default_rng(52)
    inputs = (
        bitvec("10"),
        bitvec("01"),
        np.ones(1000, dtype=np.uint8),
        np.zeros(1000, dtype=np.uint8),
        np.resize(bitvec("01"), 1001),
        rng.integers(0, 2, 100_000).astype(np.uint8),
    )
    for bits in inputs:
        x = 2 * bits.astype(np.int64) - 1
        z_fwd, z_bwd = _walk_excursions(bits)
        assert z_fwd == np.max(np.abs(np.cumsum(x)))
        assert z_bwd == np.max(np.abs(np.cumsum(x[::-1])))


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


def test_folded_pattern_counts_equal_the_lower_order_pass():
    rng = np.random.default_rng(53)
    for n in (7, 100_000):
        bits = rng.integers(0, 2, n).astype(np.uint8)
        for m in range(2, 18):
            assert np.array_equal(_fold(_pattern_counts(bits, m)),
                                  _pattern_counts(bits, m - 1)), (n, m)


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


def test_longest_run_at_the_largest_block_equals_the_int64_formulation():
    rng = np.random.default_rng(54)
    bits = rng.integers(0, 2, 750_000).astype(np.uint8)
    bits[20_000:30_000] = 1   # a whole 10,000-bit block of ones
    assert longest_run_test(bits) == parent_longest_run(bits)


def test_auto_block_sizes_match_explicit():
    rng = np.random.default_rng(46)
    bits = rng.integers(0, 2, 4096).astype(np.uint8)
    # caps: apen min(10, log2(n)-6), serial min(16, log2(n)-3)
    assert approximate_entropy_test(bits) == approximate_entropy_test(bits, 6)
    assert serial_test(bits) == serial_test(bits, 9)


def test_runs_prerequisite_failure_gives_zero():
    assert runs_test(np.ones(100, dtype=np.uint8)) == 0.0
    assert runs_test(np.zeros(100, dtype=np.uint8)) == 0.0


NOT_BITS = (
    np.array([0.5] * 50 + [1.0] * 50),
    np.array([np.nan] + [1.0] * 999),
    np.array([0, 1, 2] * 400),
    np.array([0, 1, -1] * 400, dtype=np.int8),
)


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
    # every value must be exactly 0 or 1, whatever the dtype
    tests = (frequency_test, block_frequency_test, runs_test, longest_run_test,
             cumulative_sums_test, spectral_test, approximate_entropy_test,
             serial_test)
    for bad in NOT_BITS:
        for test in tests:
            with pytest.raises(ValueError, match="0 or 1"):
                test(np.resize(bad, 1000))
    assert frequency_test(bitvec("1011010101").astype(bool)) == pytest.approx(
        FREQ_P, rel=1e-12)
    assert frequency_test(bitvec("1011010101").astype(float)) == pytest.approx(
        FREQ_P, rel=1e-12)


def battery(bits, string_bits, **kwargs):
    """``run_battery`` on the 0/1 array ``bits``, packed as output.bits is."""
    return run_battery(np.packbits(bits), bits.size, string_bits, **kwargs)


def test_battery_input_validation():
    rng = np.random.default_rng(48)
    bits = rng.integers(0, 2, 2000).astype(np.uint8)
    with pytest.raises(ValueError):
        battery(bits, 200, alpha=0.6)
    with pytest.raises(ValueError):
        battery(bits, 200, alpha=0.0)
    with pytest.raises(ValueError):
        battery(bits, 99)
    with pytest.raises(ValueError):
        battery(bits, 1000)  # only 2 strings
    packed = np.packbits(bits)
    for bad in (packed.reshape(10, -1), packed.astype(np.int16), packed.astype(float),
                packed.tobytes()):
        with pytest.raises(ValueError, match="one-dimensional uint8"):
            run_battery(bad, 2000, 200)
    for n_bits in (-1, 8 * packed.size + 1):
        with pytest.raises(ValueError, match="packed bits"):
            run_battery(packed, n_bits, 200)
    # the bits past n_bits are not read
    expect = battery(bits, 200)
    padded = np.concatenate([packed, [0xff, 0x5a]]).astype(np.uint8)
    assert run_battery(padded, 2000, 200).to_text() == expect.to_text()


def test_battery_skip_table():
    rng = np.random.default_rng(49)
    r = battery(rng.integers(0, 2, 10 * 100).astype(np.uint8), 100)
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
    r = battery(rng.integers(0, 2, 10 * 500).astype(np.uint8), 500)
    assert set(r.skipped) == {"spectral"}
    r = battery(rng.integers(0, 2, 10 * 1000).astype(np.uint8), 1000)
    assert r.skipped == ()


def test_proportion_bound_goldens():
    # bound = (1-alpha) - 3*sqrt(alpha*(1-alpha)/n_strings)
    rng = np.random.default_rng(50)
    r = battery(rng.integers(0, 2, 100 * 100).astype(np.uint8), 100)
    assert r.results[0].proportion_bound == pytest.approx(0.9601503768868014, rel=1e-12)
    r = battery(rng.integers(0, 2, 1000 * 100).astype(np.uint8), 100)
    assert r.results[0].proportion_bound == pytest.approx(0.9805607203664686, rel=1e-12)


def test_all_zero_stream_fails_frequency_with_proportion_zero():
    r = battery(np.zeros(10 * 1000, dtype=np.uint8), 1000)
    by_name = {x.name: x for x in r.results}
    assert by_name["frequency"].proportion == 0.0
    assert not by_name["frequency"].passed
    assert not r.all_passed
    assert "FAIL" in r.to_text()


def test_prng_battery_passes():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, 20 * 100_000).astype(np.uint8)
    r = battery(bits, 100_000)
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
    r = battery(bits, 2000)
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


# ---------------------------------------------------------------------------
# Reference formulations: each statistic on int64 copies of the string, one
# shift-or pattern pass per order, the reversed walk for the backward
# cumulative sum and an int64 longest-run scan.  The battery's narrower,
# folded kernels must reproduce their p-values bit for bit.


def parent_pattern_counts(bits, m):
    if m == 0:
        return np.array([bits.size], dtype=np.int64)
    padded = np.concatenate([bits, bits[: m - 1]]).astype(np.int64)
    codes = np.zeros(bits.size, dtype=np.int64)
    for i in range(m):
        codes <<= 1
        codes |= padded[i:i + bits.size]
    return np.bincount(codes, minlength=1 << m)


def parent_frequency(bits):
    bits = bits.astype(np.int64)
    n = bits.size
    return float(erfc(abs(int(2 * bits.sum() - n)) / math.sqrt(2.0 * n)))


def parent_block_frequency(bits, m=128):
    bits = bits.astype(np.int64)
    n_blocks = bits.size // m
    pi = bits[: n_blocks * m].reshape(n_blocks, m).mean(axis=1)
    chi2 = 4.0 * m * float(np.sum((pi - 0.5) ** 2))
    return float(gammaincc(n_blocks / 2.0, chi2 / 2.0))


def parent_runs(bits):
    bits = bits.astype(np.int64)
    n = bits.size
    pi = bits.mean()
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(erfc(num / den))


def parent_longest_run(bits):
    bits = bits.astype(np.int64)
    n = bits.size
    for min_n, m, edges, probs in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    n_blocks = n // m
    rows = bits[: n_blocks * m].reshape(n_blocks, m)
    c = np.cumsum(rows, axis=1)
    runs = (c - np.maximum.accumulate(np.where(rows == 0, c, 0), axis=1)).max(axis=1)
    lo, hi = edges[0], edges[-1] + 1
    counts = np.bincount(np.clip(runs, lo, hi) - lo, minlength=hi - lo + 1)
    expected = n_blocks * np.asarray(probs)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return float(gammaincc((len(probs) - 1) / 2.0, chi2 / 2.0))


def parent_cumulative_sums(bits):
    x = 2 * bits.astype(np.int64) - 1
    z_fwd = int(np.max(np.abs(np.cumsum(x))))
    z_bwd = int(np.max(np.abs(np.cumsum(x[::-1]))))
    return _cusum_pvalue(x.size, z_fwd), _cusum_pvalue(x.size, z_bwd)


def parent_spectral(bits):
    n = bits.size
    mags = np.abs(np.fft.rfft(2.0 * bits.astype(np.int64) - 1.0))[: n // 2]
    n1 = int(np.count_nonzero(mags < math.sqrt(math.log(1.0 / 0.05) * n)))
    d = (n1 - 0.95 * n / 2.0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return float(erfc(abs(d) / math.sqrt(2.0)))


def parent_approximate_entropy(bits):
    bits = bits.astype(np.int64)
    n = bits.size
    m = min(10, int(math.floor(math.log2(n))) - 6)

    def phi(mm):
        counts = parent_pattern_counts(bits, mm)
        p = counts[counts > 0].astype(float) / n
        return float(np.sum(p * np.log(p)))

    chi2 = 2.0 * n * (math.log(2.0) - (phi(m) - phi(m + 1)))
    return float(gammaincc(2.0 ** (m - 1), chi2 / 2.0))


def parent_serial(bits):
    bits = bits.astype(np.int64)
    n = bits.size
    m = min(16, int(math.floor(math.log2(n))) - 3)

    def psi_sq(mm):
        if mm == 0:
            return 0.0
        counts = parent_pattern_counts(bits, mm).astype(float)
        return float((1 << mm) / n * np.sum(counts ** 2) - n)

    p_m, p_m1, p_m2 = psi_sq(m), psi_sq(m - 1), psi_sq(m - 2)
    return (float(gammaincc(2.0 ** (m - 2), (p_m - p_m1) / 2.0)),
            float(gammaincc(2.0 ** (m - 3), (p_m - 2.0 * p_m1 + p_m2) / 2.0)))


PARENT = {
    "frequency": parent_frequency,
    "block-frequency": parent_block_frequency,
    "runs": parent_runs,
    "longest-run": parent_longest_run,
    "spectral": parent_spectral,
    "approximate-entropy": parent_approximate_entropy,
    "cumulative-sums-forward": lambda b: parent_cumulative_sums(b)[0],
    "cumulative-sums-backward": lambda b: parent_cumulative_sums(b)[1],
    "serial-1": lambda b: parent_serial(b)[0],
    "serial-2": lambda b: parent_serial(b)[1],
}


def test_battery_p_values_equal_parent_formulations():
    rng = np.random.default_rng(55)
    skewed = np.concatenate([
        np.ones((3, 1000)), np.zeros((3, 1000)),
        rng.random((6, 1000)) < 0.6]).astype(np.uint8)
    cases = (
        (rng.integers(0, 2, (20, 100_000)).astype(np.uint8), 10),
        (rng.integers(0, 2, (12, 2000)).astype(np.uint8), 10),
        (rng.integers(0, 2, (10, 100)).astype(np.uint8), 6),
        (skewed, 10),
    )
    for strings, n_results in cases:
        report = battery(strings.ravel(), strings.shape[1])
        assert len(report.results) == n_results
        for r in report.results:
            expect = [PARENT[r.name](row) for row in strings]
            assert np.array_equal(r.p_values, expect), (strings.shape, r.name)
    # the skewed strings take the runs prerequisite and the z = n walks
    by_name = {r.name: r.p_values for r in battery(skewed.ravel(), 1000).results}
    assert np.all(by_name["runs"][:6] == 0.0)
    assert _walk_excursions(skewed[0]) == (1000, 1000)
    assert _walk_excursions(skewed[3]) == (1000, 1000)


@pytest.mark.parametrize("string_bits", [1000, 1001, 4097])
def test_spectral_buffers_reused_across_strings_equal_parent_formula(string_bits):
    # one work space serves every string of a battery: strings of opposite
    # content in turn must not see what the previous string left there
    rng = np.random.default_rng(string_bits)
    strings = rng.integers(0, 2, (12, string_bits)).astype(np.uint8)
    strings[1::4] = 1
    strings[2::4] = rng.random((3, string_bits)) < 0.45
    report = battery(strings.ravel(), string_bits)
    (spectral,) = [r.p_values for r in report.results if r.name == "spectral"]
    expect = [parent_spectral(row) for row in strings]
    assert np.array_equal(spectral, expect)
    assert [spectral_test(row) for row in strings] == expect


STATISTIC = {
    "frequency": frequency_test,
    "block-frequency": block_frequency_test,
    "runs": runs_test,
    "longest-run": longest_run_test,
    "spectral": spectral_test,
    "approximate-entropy": approximate_entropy_test,
    "cumulative-sums-forward": lambda b: cumulative_sums_test(b)[0],
    "cumulative-sums-backward": lambda b: cumulative_sums_test(b)[1],
    "serial-1": lambda b: serial_test(b)[0],
    "serial-2": lambda b: serial_test(b)[1],
}


def unpacked_battery(packed, n_bits, string_bits, names, alpha=0.01):
    """The battery's report from each statistic run on each string of
    ``np.unpackbits(packed)``, one fresh array per string."""
    bits = np.unpackbits(packed, count=n_bits)
    n_strings = n_bits // string_bits
    bound = (1 - alpha) - 3.0 * math.sqrt((1 - alpha) * alpha / n_strings)
    results = []
    for name in names:
        pv = np.array([STATISTIC[name](bits[i * string_bits:(i + 1) * string_bits].copy())
                       for i in range(n_strings)])
        proportion = float(np.mean(pv >= alpha))
        uniformity = _uniformity_p(pv)
        results.append(StatisticSummary(
            name, pv, proportion, bound, uniformity,
            proportion >= bound and uniformity >= 1e-4))
    skipped = tuple(name for name, shortest in (
        ("block-frequency", 128), ("longest-run", 128), ("spectral", 1000),
        ("approximate-entropy", 256)) if string_bits < shortest)
    return BatteryReport(n_strings, string_bits, alpha, tuple(results), skipped)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("string_bits", [100, 1001, 100_000])
def test_packed_battery_equals_unpacked_strings(string_bits, threads):
    # each string is expanded from the bytes that cover it, at every bit
    # offset when string_bits is odd; the bits past n_bits are ones here
    rng = np.random.default_rng(string_bits)
    n_bits = 12 * string_bits + 5
    bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
    bits[string_bits:2 * string_bits] = 1
    bits[3 * string_bits:4 * string_bits] = rng.random(string_bits) < 0.45
    packed = np.packbits(np.concatenate([bits, np.ones(11, dtype=np.uint8)]))
    report = run_battery(packed, n_bits, string_bits, threads=threads)
    want = unpacked_battery(packed, n_bits, string_bits, [r.name for r in report.results])
    assert len(report.results) == (6 if string_bits < 128 else 10)
    assert report.skipped == want.skipped
    for r, e in zip(report.results, want.results):
        assert np.array_equal(r.p_values, e.p_values), r.name
    assert report.to_text() == want.to_text()


@pytest.mark.parametrize("threads", [2, 3])
def test_battery_on_workers_equals_one_thread(threads):
    # strings split into contiguous spans, one per worker, each with its own
    # spectral buffers: every statistic is bitwise the one-thread battery,
    # also with the workers switched as often as the interpreter allows
    rng = np.random.default_rng(56 + threads)
    strings = rng.integers(0, 2, (13, 4097)).astype(np.uint8)
    strings[1::4] = 1
    strings[2::4] = rng.random((3, 4097)) < 0.45
    one = battery(strings.ravel(), 4097)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = battery(strings.ravel(), 4097, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert many.to_text() == one.to_text()
    assert many.skipped == one.skipped
    assert [r.name for r in many.results] == [r.name for r in one.results]
    for r, e in zip(many.results, one.results):
        assert np.array_equal(r.p_values, e.p_values), r.name
        assert (r.proportion, r.proportion_bound, r.uniformity_p, r.passed) == (
            e.proportion, e.proportion_bound, e.uniformity_p, e.passed)


def test_battery_rejects_no_threads():
    bits = np.random.default_rng(57).integers(0, 2, 2000).astype(np.uint8)
    with pytest.raises(ValueError, match="threads"):
        battery(bits, 200, threads=0)
