"""Statistical randomness battery for extracted bit streams.

Implements eight of the standard binary randomness tests (ten p-value
statistics in total): monobit frequency, block frequency, runs, longest
run of ones, cumulative sums (forward and backward), spectral, approximate
entropy, and serial (two statistics).  The remaining seven tests of the
usual fifteen-test battery are deliberately not implemented and are listed
by name in every report so downstream tooling cannot mistake a pass here
for full coverage.

Battery semantics: the input stream is split into equal-length strings,
each statistic produces one p-value per string, and a statistic passes
when (a) the fraction of strings with p >= alpha stays above the
three-sigma binomial bound (1-alpha) - 3*sqrt(alpha*(1-alpha)/n_strings)
and (b) the p-values are uniform over ten bins at significance 1e-4 by a
chi-square test.

Every statistic works on a ``uint8`` 0/1 array and rejects any value other
than exactly 0 or 1.  ``run_battery`` takes the stream packed eight bits to
a byte, which cannot hold another value, and expands one string at a time
into a reused ``uint8`` row, whose per-test check is a single ``max() <= 1``
pass.  Each statistic makes one pass of its kernel per string, in the
narrowest integer type that holds it: ``uint16`` pattern codes and run
lengths, an ``int32`` random walk.  The serial and approximate-entropy tests
count patterns once, at their largest order, and fold the table down to the
lower orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaincc, ndtr

from ._io import ordered_map

__all__ = [
    "frequency_test",
    "block_frequency_test",
    "runs_test",
    "longest_run_test",
    "cumulative_sums_test",
    "spectral_test",
    "approximate_entropy_test",
    "serial_test",
    "StatisticSummary",
    "BatteryReport",
    "run_battery",
    "UNIMPLEMENTED_TESTS",
]

UNIMPLEMENTED_TESTS = (
    "binary-matrix-rank",
    "non-overlapping-template",
    "overlapping-template",
    "maurer-universal",
    "linear-complexity",
    "random-excursions",
    "random-excursions-variant",
)


def _check_bits(bits, minimum: int, name: str) -> np.ndarray:
    """``bits`` as a one-dimensional ``uint8`` array of at least ``minimum`` bits.

    Raises ValueError unless every value is exactly 0 or 1.  ``bool`` and
    ``uint8`` input is returned without a copy after one ``max() <= 1``
    pass; any other dtype (floats, NaN, signed integers) is compared
    against 0 and 1 exactly.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError(f"{name}: bits must be one-dimensional")
    if bits.size < minimum:
        raise ValueError(f"{name}: need at least {minimum} bits, got {bits.size}")
    if bits.dtype == np.bool_ or bits.dtype == np.uint8:
        bits = bits.view(np.uint8)
        if bits.size and bits.max() > 1:
            raise ValueError(f"{name}: bits must be 0 or 1")
        return bits
    ones = bits == 1
    if np.count_nonzero(ones | (bits == 0)) != bits.size:
        raise ValueError(f"{name}: bits must be 0 or 1")
    return ones.view(np.uint8)


def frequency_test(bits) -> float:
    """Monobit test: erfc(|sum of +-1| / sqrt(2n)).

    The structural minimum here is tiny so the published worked-example
    vectors (10 to 128 bits) stay reproducible; the battery applies the
    recommended per-test minimum lengths when deciding what to run.
    """
    bits = _check_bits(bits, 2, "frequency")
    n = bits.size
    s = abs(2 * int(np.count_nonzero(bits)) - n)
    return float(erfc(s / math.sqrt(2.0 * n)))


def block_frequency_test(bits, block_size: int = 128) -> float:
    """Chi-square on per-block ones fractions."""
    m = int(block_size)
    if m < 2:
        raise ValueError("block_size must be >= 2")
    bits = _check_bits(bits, m, "block-frequency")
    n_blocks = bits.size // m
    pi = bits[: n_blocks * m].reshape(n_blocks, m).sum(axis=1) / m
    chi2 = 4.0 * m * float(np.sum((pi - 0.5) ** 2))
    return float(gammaincc(n_blocks / 2.0, chi2 / 2.0))


def runs_test(bits) -> float:
    """Total number of runs against its expectation under i.i.d. bits."""
    bits = _check_bits(bits, 2, "runs")
    n = bits.size
    pi = int(np.count_nonzero(bits)) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0  # monobit prerequisite failed: runs count is meaningless
    v = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(erfc(num / den))


_LONGEST_RUN_TABLES = (
    # (min_n, block_size, categories (upper edges, last open), probabilities)
    (750_000, 10_000, (10, 11, 12, 13, 14, 15),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6_272, 128, (4, 5, 6, 7, 8),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, (1, 2, 3),
     (0.2148, 0.3672, 0.2305, 0.1875)),
)


def _max_run_per_row(rows: np.ndarray) -> np.ndarray:
    """Longest run of ones in each row of a 0/1 matrix, vectorized.

    Counts in ``uint16``: the longest row, 10,000 bits, stays below 2**16.
    """
    c = np.cumsum(rows, axis=1, dtype=np.uint16)
    reset = c * (rows ^ 1)   # c at the zeros, 0 at the ones
    np.maximum.accumulate(reset, axis=1, out=reset)
    c -= reset
    return c.max(axis=1)


def longest_run_test(bits) -> float:
    """Distribution of the longest run of ones within fixed-size blocks."""
    bits = _check_bits(bits, 128, "longest-run")
    n = bits.size
    for min_n, m, edges, probs in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    n_blocks = n // m
    runs = _max_run_per_row(bits[: n_blocks * m].reshape(n_blocks, m))
    lo = edges[0]
    hi = edges[-1] + 1
    cats = np.clip(runs, lo, hi) - lo
    counts = np.bincount(cats, minlength=hi - lo + 1)
    expected = n_blocks * np.asarray(probs)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    k = len(probs) - 1
    return float(gammaincc(k / 2.0, chi2 / 2.0))


def _trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (C semantics)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b > 0) else -q


def _cusum_pvalue(n: int, z: int) -> float:
    sqrt_n = math.sqrt(n)
    nz = n // z
    k1 = np.arange(_trunc_div(-nz + 1, 4), _trunc_div(nz - 1, 4) + 1)
    term1 = np.sum(ndtr((4 * k1 + 1) * z / sqrt_n)
                   - ndtr((4 * k1 - 1) * z / sqrt_n))
    k2 = np.arange(_trunc_div(-nz - 3, 4), _trunc_div(nz - 1, 4) + 1)
    term2 = np.sum(ndtr((4 * k2 + 3) * z / sqrt_n)
                   - ndtr((4 * k2 + 1) * z / sqrt_n))
    return float(np.clip(1.0 - term1 + term2, 0.0, 1.0))


def _walk_excursions(bits: np.ndarray) -> tuple[int, int]:
    """Maximum |partial sum| of the +-1 walk, forward and backward.

    One walk ``S`` serves both directions: the backward walk's partial sums
    are ``S[-1] - s`` for ``s`` in ``{0} U S[:-1]``, so its excursion is
    ``max(S[-1] - lo, hi - S[-1])`` over that set's extremes.
    """
    n = bits.size
    walk = np.multiply(bits, 2, dtype=np.int32 if n < 2**31 else np.int64)
    walk -= 1
    np.cumsum(walk, out=walk)
    last = int(walk[-1])
    lo = min(0, int(walk[:-1].min()))
    hi = max(0, int(walk[:-1].max()))
    return max(hi, -lo, abs(last)), max(last - lo, hi - last)


def cumulative_sums_test(bits) -> tuple[float, float]:
    """Maximum excursion of the +-1 random walk, forward and backward."""
    bits = _check_bits(bits, 2, "cumulative-sums")
    z_fwd, z_bwd = _walk_excursions(bits)
    n = bits.size
    return _cusum_pvalue(n, max(z_fwd, 1)), _cusum_pvalue(n, max(z_bwd, 1))


def _spectral_work(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``work`` buffers of ``spectral_test`` for strings of ``n`` bits."""
    return np.empty(n), np.empty(n // 2 + 1, dtype=complex)


def spectral_test(bits, *, work: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Count of low DFT peaks of the +-1 sequence against the 95% threshold.

    ``work`` is the ``(signs, spectrum)`` pair of ``_spectral_work(len(bits))``
    that the +-1 sequence and its transform are written into; ``run_battery``
    passes one pair to every string of a span, so those strings reuse the
    same memory.
    """
    bits = _check_bits(bits, 8, "spectral")
    n = bits.size
    signs, spectrum = _spectral_work(n) if work is None else work
    np.multiply(bits, 2.0, out=signs)
    signs -= 1.0
    np.fft.rfft(signs, out=spectrum)
    mags = np.abs(spectrum[: n // 2], out=signs[: n // 2])
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(mags < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return float(erfc(abs(d) / math.sqrt(2.0)))


def _pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of all overlapping m-bit patterns with wraparound, length 2^m.

    One shift-or pass builds every window's code, first bit most
    significant, in ``uint16`` for m <= 16, ``int32`` for m <= 30 and
    ``int64`` above.  The lower orders need no pass of their own: see
    ``_fold``.
    """
    if m == 0:
        return np.array([bits.size], dtype=np.int64)
    dtype = np.uint16 if m <= 16 else np.int32 if m <= 30 else np.int64
    n = bits.size
    wrapped = np.resize(bits, n + m - 1).astype(dtype)  # cyclic, also for m - 1 > n
    codes = wrapped[:n].copy()
    for i in range(1, m):
        codes <<= 1
        codes |= wrapped[i:i + n]
    return np.bincount(codes, minlength=1 << m)


def _fold(counts: np.ndarray) -> np.ndarray:
    """Pattern counts one order lower, exactly.

    Dropping the last bit of every cyclic m-bit window gives every cyclic
    (m-1)-bit window once, so patterns ``2c`` and ``2c + 1`` sum to ``c``.
    """
    return counts.reshape(-1, 2).sum(axis=1)


def approximate_entropy_test(bits, block_size: int | None = None) -> float:
    """Compare overlapping pattern frequencies at lengths m and m+1.

    With ``block_size=None`` the block length is min(10, floor(log2 n) - 6)
    so pattern counts stay dense enough for the chi-square approximation.
    An explicit ``block_size`` is honored as given, which keeps the short
    published worked-example vectors reproducible.  One pattern pass at
    m+1; the m-bit counts are its fold.
    """
    bits = _check_bits(bits, 4, "approximate-entropy")
    n = bits.size
    m = min(10, int(math.floor(math.log2(n))) - 6) if block_size is None \
        else int(block_size)
    if m < 1 or m + 1 >= n:
        raise ValueError("approximate-entropy: sequence too short for the block size")

    def phi(counts: np.ndarray) -> float:
        nz = counts[counts > 0].astype(float)
        p = nz / n
        return float(np.sum(p * np.log(p)))

    counts = _pattern_counts(bits, m + 1)
    phi_m1 = phi(counts)
    apen = phi(_fold(counts)) - phi_m1
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return float(gammaincc(2.0 ** (m - 1), chi2 / 2.0))


def serial_test(bits, block_size: int | None = None) -> tuple[float, float]:
    """First and second differences of the overlapping-pattern statistic.

    With ``block_size=None`` the block length is min(16, floor(log2 n) - 3);
    an explicit ``block_size`` is honored as given.  One pattern pass at m;
    the (m-1)- and (m-2)-bit counts are its folds.
    """
    bits = _check_bits(bits, 4, "serial")
    n = bits.size
    m = min(16, int(math.floor(math.log2(n))) - 3) if block_size is None \
        else int(block_size)
    if m < 2 or m >= n:
        raise ValueError("serial: sequence too short for the block size")

    def psi_sq(counts: np.ndarray) -> float:
        if counts.size == 1:
            return 0.0
        return float(counts.size / n * np.sum(counts.astype(float) ** 2) - n)

    counts = _pattern_counts(bits, m)
    p_m = psi_sq(counts)
    counts = _fold(counts)
    p_m1 = psi_sq(counts)
    p_m2 = psi_sq(_fold(counts))
    d1 = p_m - p_m1
    d2 = p_m - 2.0 * p_m1 + p_m2
    pv1 = float(gammaincc(2.0 ** (m - 2), d1 / 2.0))
    pv2 = float(gammaincc(2.0 ** (m - 3), d2 / 2.0))
    return pv1, pv2


# ---------------------------------------------------------------------------
# battery

@dataclass(frozen=True)
class StatisticSummary:
    """Per-statistic battery outcome across all strings."""

    name: str
    p_values: np.ndarray
    proportion: float
    proportion_bound: float
    uniformity_p: float
    passed: bool


@dataclass(frozen=True)
class BatteryReport:
    n_strings: int
    string_bits: int
    alpha: float
    results: tuple[StatisticSummary, ...]
    skipped: tuple[str, ...]
    unimplemented: tuple[str, ...] = UNIMPLEMENTED_TESTS

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        width = max(len(r.name) for r in self.results) + 2
        lines = [
            f"strings: {self.n_strings} x {self.string_bits} bits, alpha={self.alpha}",
            f"{'statistic':<{width}}{'proportion':>11}{'bound':>9}"
            f"{'uniformity':>12}  result",
        ]
        for r in self.results:
            lines.append(
                f"{r.name:<{width}}{r.proportion:>11.4f}{r.proportion_bound:>9.4f}"
                f"{r.uniformity_p:>12.6f}  {'pass' if r.passed else 'FAIL'}")
        if self.skipped:
            lines.append("skipped (string too short): " + ", ".join(self.skipped))
        lines.append("not implemented: " + ", ".join(self.unimplemented))
        lines.append(f"overall: {'pass' if self.all_passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _uniformity_p(p_values: np.ndarray) -> float:
    counts, _ = np.histogram(p_values, bins=10, range=(0.0, 1.0))
    expected = p_values.size / 10.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return float(gammaincc(4.5, chi2 / 2.0))


def run_battery(packed: np.ndarray, n_bits: int, string_bits: int, *,
                alpha: float = 0.01, threads: int = 1) -> BatteryReport:
    """Split the first ``n_bits`` bits of ``packed`` into strings and apply
    every implemented statistic.

    ``packed`` is a one-dimensional ``uint8`` array of the bits eight to a
    byte, the first bit the most significant (``np.packbits``' order, that
    of output.bits); the bits past ``n_bits`` are not read.  The strings are
    tested in ``threads`` contiguous spans, one per worker.  Each worker
    expands its strings one at a time into its own reused ``uint8`` row and
    keeps its own spectral-test buffers; the p-values come back in string
    order.
    """
    packed = np.asarray(packed)
    if packed.ndim != 1 or packed.dtype != np.uint8:
        raise ValueError("packed must be a one-dimensional uint8 array")
    if not 0 <= n_bits <= 8 * packed.size:
        raise ValueError(f"n_bits = {n_bits} outside the {8 * packed.size} packed bits")
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 0.5)")
    if string_bits < 100:
        raise ValueError("string_bits must be >= 100")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    string_bits = int(string_bits)
    n_strings = int(n_bits) // string_bits
    if n_strings < 10:
        raise ValueError(
            f"need at least 10 strings for proportion statistics, got {n_strings}")

    def battery(work) -> tuple:
        """(test, shortest string it runs on, function, the statistic of each
        p-value), the spectral test writing into ``work``."""
        return (
            ("frequency", 100, frequency_test, ("frequency",)),
            ("block-frequency", 128, block_frequency_test, ("block-frequency",)),
            ("runs", 100, runs_test, ("runs",)),
            ("longest-run", 128, longest_run_test, ("longest-run",)),
            ("spectral", 1000, lambda row: spectral_test(row, work=work), ("spectral",)),
            ("approximate-entropy", 256, approximate_entropy_test,
             ("approximate-entropy",)),
            ("cumulative-sums", 100, cumulative_sums_test,
             ("cumulative-sums-forward", "cumulative-sums-backward")),
            ("serial", 32, serial_test, ("serial-1", "serial-2")),
        )

    listed = battery(None)   # read for its names and lengths, never called
    skipped = [name for name, shortest, _, _ in listed if string_bits < shortest]
    run = [p_names for name, _, _, p_names in listed if name not in skipped]

    # row b holds the eight bits of byte value b, the first the most significant
    bits_of_byte = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)

    def test_span(span: range) -> list[np.ndarray]:
        """Each run test's p-values on the strings of ``span``, a (strings,
        p-values) array."""
        work = _spectral_work(string_bits)   # this span's own: never shared
        tests = [test for name, _, test, _ in battery(work) if name not in skipped]
        # the bytes covering a string, which may start at any of a byte's
        # eight bits, as indices, and their bits; take's "clip" mode writes
        # into ``expanded`` without a buffer (every byte is a valid index)
        covering = np.empty((string_bits + 7) // 8 + 1, dtype=np.intp)
        expanded = np.empty((covering.size, 8), dtype=np.uint8)
        p_values = []
        for i in span:
            start = i * string_bits
            first, end = start // 8, -(-(start + string_bits) // 8)
            covering[:end - first] = packed[first:end]
            np.take(bits_of_byte, covering[:end - first], axis=0,
                    out=expanded[:end - first], mode="clip")
            row = expanded.reshape(-1)[start % 8:start % 8 + string_bits]
            p_values.append([test(row) for test in tests])
        return [np.array(column, dtype=float).reshape(len(span), -1)
                for column in zip(*p_values)]

    parts = min(threads, n_strings)
    edges = [n_strings * i // parts for i in range(parts + 1)]
    per_span = ordered_map(test_span, [range(a, b) for a, b in zip(edges, edges[1:])],
                           threads)
    collected: dict[str, np.ndarray] = {}
    for p_names, *spans in zip(run, *per_span):
        collected.update(zip(p_names, np.concatenate(spans).T))

    p_hat = 1.0 - alpha
    bound = p_hat - 3.0 * math.sqrt(p_hat * alpha / n_strings)
    results = []
    for name, pv in collected.items():
        proportion = float(np.mean(pv >= alpha))
        uni = _uniformity_p(pv)
        results.append(StatisticSummary(
            name=name, p_values=pv, proportion=proportion,
            proportion_bound=bound, uniformity_p=uni,
            passed=proportion >= bound and uni >= 1e-4))
    return BatteryReport(
        n_strings=n_strings, string_bits=int(string_bits), alpha=float(alpha),
        results=tuple(results), skipped=tuple(skipped))
