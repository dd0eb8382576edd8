"""Tests for extraction planning and Toeplitz hashing.

The hashing oracle here is a deliberately naive pure-Python double loop
over T[i][j] = seed[i + (n-1) - j]; the package's FFT route and the
vectorized naive oracle of ``naive_toeplitz`` must agree with it bit for
bit.  Plan sizes are re-derived by a brute
search over block sizes.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from sdiqrng.detector import MeasurementConfig, RawSampleBlock
from sdiqrng import extractor
from sdiqrng.entropy import Certificate, equivalent_bit_rate
from sdiqrng.exceptions import InfeasiblePlanError, SecurityModelViolation
from sdiqrng.extractor import (
    AccountingReport,
    ExtractionPlan,
    ToeplitzSeed,
    extract_stream,
    plan_extraction,
    read_seed_file,
    serialize_samples,
    test_prng_seed as prng_seed,
    toeplitz_hash,
    write_seed_file,
)

from naive_toeplitz import NAIVE_CHUNK_BYTES, naive_chunk_rows, toeplitz_naive


def oracle_toeplitz(x_bits, seed_bits, m):
    """Definitional GF(2) product, one scalar at a time."""
    x = [int(b) for b in x_bits]
    s = [int(b) for b in seed_bits]
    n = len(x)
    out = []
    for i in range(m):
        acc = 0
        for j in range(n):
            acc ^= s[i + (n - 1) - j] & x[j]
        out.append(acc)
    return np.array(out, dtype=np.uint8)


def oracle_plan_block_size(h_min, security, target):
    n = 1
    while True:
        m = math.floor(n * h_min - security)
        if m >= 1 and m >= target * n - 1e-9:
            return n, m
        n += 1


def cert(h_min, eps_log2):
    return Certificate(h_min, 2.0 ** eps_log2, "test")


def _code_blocks(rng, sizes, clipped=None, adc_bits=8):
    cfg = MeasurementConfig(adc_bits=adc_bits)
    half = 1 << (adc_bits - 1)
    clipped = clipped or [0] * len(sizes)
    return [RawSampleBlock(codes=rng.integers(-half, half, s, dtype=np.int16),
                           config=cfg, clipped=c)
            for s, c in zip(sizes, clipped)]


def test_plan_operating_point():
    plan = plan_extraction(8, cert(5.53, -100), 5.4)
    assert plan.samples_per_block == 1540
    assert plan.output_bits == 8316
    assert plan.input_bits == 12320
    assert plan.seed_bits == 12320 + 8316 - 1
    assert plan.bits_per_sample_effective == pytest.approx(5.4, abs=1e-12)
    assert plan.security_bits == pytest.approx(200.0, abs=1e-9)
    n_oracle, m_oracle = oracle_plan_block_size(5.53, 200.0, 5.4)
    assert (plan.samples_per_block, plan.output_bits) == (n_oracle, m_oracle)
    # one block smaller fails its own floor inequality (5.4*1539 = 8310.6
    # but only 8310 bits fit), which is why 1540 is the first feasible size
    assert math.floor(1539 * 5.53 - 200.0) < 5.4 * 1539 - 1e-9


def test_plan_integer_entropy_example():
    plan = plan_extraction(8, cert(8.0, -100), 7.9)
    assert plan.samples_per_block == 2000
    assert plan.output_bits == 15800
    assert plan.bits_per_sample_effective == pytest.approx(7.9, abs=1e-12)


def test_plan_search_property_grid():
    for h_min, gap in ((1.7, 0.1), (3.3, 0.37), (5.53, 0.13), (7.2, 0.25)):
        for eps_log2 in (-64, -100):
            target = h_min - gap
            plan = plan_extraction(8, cert(h_min, eps_log2), target)
            security = -2.0 * eps_log2
            n, m = plan.samples_per_block, plan.output_bits
            assert m == math.floor(n * h_min - security)
            assert m >= target * n - 1e-9
            assert plan.seed_bits == plan.input_bits + m - 1
            assert plan.input_bits == 8 * n
            n_oracle, m_oracle = oracle_plan_block_size(h_min, security,
                                                        target)
            assert (n, m) == (n_oracle, m_oracle)


def test_plan_rejections():
    with pytest.raises(InfeasiblePlanError):
        plan_extraction(8, cert(5.53, -100), 5.53)
    with pytest.raises(InfeasiblePlanError):
        plan_extraction(8, cert(5.53, -100), 6.0)
    for bits in (1, 17, 8.0):
        with pytest.raises(ValueError):
            plan_extraction(bits, cert(5.53, -100), 5.4)
    with pytest.raises(ValueError):
        plan_extraction(8, cert(9.0, -100), 5.4)  # h_min above bit depth
    with pytest.raises(ValueError):
        plan_extraction(8, cert(5.53, -100), 0.0)


def test_hash_hand_example():
    x = [1, 0, 1, 1]
    seed = [1, 0, 1, 1, 0]
    # rows of T are [1,1,0,1] and [0,1,1,0]; parities of x against them
    want = np.array([0, 1], dtype=np.uint8)
    np.testing.assert_array_equal(
        toeplitz_naive(np.array(x, np.uint8), np.array(seed, np.uint8), 2),
        want)
    np.testing.assert_array_equal(toeplitz_hash(x, ToeplitzSeed(seed, "t"), 2), want)
    np.testing.assert_array_equal(oracle_toeplitz(x, seed, 2), want)


def test_hash_zero_input_maps_to_zero():
    rng = np.random.default_rng(3)
    seed = rng.integers(0, 2, 64 + 32 - 1, dtype=np.uint8)
    x = np.zeros(64, dtype=np.uint8)
    assert not np.any(toeplitz_naive(x, seed, 32))
    assert not np.any(toeplitz_hash(x, ToeplitzSeed(seed, "t"), 32))


def test_hash_linearity_at_operating_width():
    rng = np.random.default_rng(5)
    n, m = 12312, 8312
    seed = ToeplitzSeed(rng.integers(0, 2, n + m - 1, dtype=np.uint8), "t")
    for _ in range(100):
        x = rng.integers(0, 2, n, dtype=np.uint8)
        y = rng.integers(0, 2, n, dtype=np.uint8)
        lhs = toeplitz_hash(x ^ y, seed, m)
        rhs = toeplitz_hash(x, seed, m) ^ toeplitz_hash(y, seed, m)
        np.testing.assert_array_equal(lhs, rhs)


def test_fast_route_matches_python_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 257))
        m = int(rng.integers(1, n + 1))
        x = rng.integers(0, 2, n, dtype=np.uint8)
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        want = oracle_toeplitz(x, seed, m)
        np.testing.assert_array_equal(toeplitz_naive(x, seed, m), want)
        np.testing.assert_array_equal(toeplitz_hash(x, ToeplitzSeed(seed, "t"), m), want)


def test_routes_agree_across_random_sizes():
    rng = np.random.default_rng(11)
    cases = [(1, 1), (2, 1), (16, 16), (100, 100)]
    while len(cases) < 200:
        n = int(2 ** rng.uniform(0.0, 11.0))
        cases.append((n, int(rng.integers(1, n + 1))))
    for n, m in cases:
        x = rng.integers(0, 2, n, dtype=np.uint8)
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        np.testing.assert_array_equal(
            toeplitz_naive(x, seed, m),
            toeplitz_hash(x, ToeplitzSeed(seed, "t"), m))


def test_hash_argument_validation():
    x = np.ones(8, dtype=np.uint8)
    seed = ToeplitzSeed(np.ones(11, dtype=np.uint8), "t")
    with pytest.raises(ValueError):
        toeplitz_hash(x, seed, 5)  # needs 12 seed bits
    with pytest.raises(ValueError):
        toeplitz_hash(x, seed, 0)
    with pytest.raises(ValueError):
        toeplitz_hash(np.array([0, 2, 1]), ToeplitzSeed(np.ones(6, np.uint8), "t"), 4)
    with pytest.raises(ValueError):
        toeplitz_hash(np.zeros(0, np.uint8), seed, 4)
    # n = 11 - 4 + 1 = 8: only whole multiples of 8 input bits are accepted
    for size in (7, 9, 12, 15, 17):
        with pytest.raises(ValueError, match="whole number of blocks"):
            toeplitz_hash(np.ones(size, np.uint8), seed, 4)
    with pytest.raises(ValueError):
        toeplitz_hash(x, seed, 12)  # m longer than the seed leaves no n


def test_hash_of_concatenated_blocks_is_concatenated_hashes():
    rng = np.random.default_rng(53)
    n, m = 301, 123
    seed_bits = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
    seed = ToeplitzSeed(seed_bits, "t")
    for k in (1, 2, 5, 8, 9):
        x = rng.integers(0, 2, k * n, dtype=np.uint8)
        want = np.concatenate([oracle_toeplitz(b, seed_bits, m)
                               for b in x.reshape(k, n)])
        np.testing.assert_array_equal(toeplitz_hash(x, seed, m), want)


def test_fft_rounding_residual_is_reported_and_guarded(monkeypatch):
    plan = plan_extraction(8, cert(5.53, -20), 5.0)
    rng = np.random.default_rng(59)
    blocks = _code_blocks(rng, [20 * plan.samples_per_block])
    seed = prng_seed(plan.seed_bits, 61)
    _, report = extract_stream(blocks, plan, seed)
    # two blocks share a transform row, the second weighted by 2**s
    weight = 2 ** plan.input_bits.bit_length()
    assert 0.0 <= report.fft_rounding_residual_max < 1e-9 * weight

    slot = np.zeros(1)
    x = rng.integers(0, 2, plan.input_bits, dtype=np.uint8)
    toeplitz_hash(x, seed, plan.output_bits, residual=slot)
    assert 0.0 <= slot[0] < 1e-9 * weight

    exact_irfft = extractor.irfft

    def shifted_irfft(*args, **kwargs):
        counts = exact_irfft(*args, **kwargs)  # written into kwargs["out"]
        assert counts is kwargs["out"]
        counts += 0.3
        return counts

    monkeypatch.setattr(extractor, "irfft", shifted_irfft)
    with pytest.raises(SecurityModelViolation, match=r"residual 0\.3"):
        toeplitz_hash(x, seed, plan.output_bits)
    with pytest.raises(SecurityModelViolation,
                       match=r"batch 0 \(blocks 0\.\.7\).*residual 0\.3"):
        extract_stream(blocks, plan, seed, threads=2)


def naive_blocks(x, seed, m):
    """The naive route block by block, concatenated."""
    n = seed.size - m + 1
    return np.concatenate([toeplitz_naive(b, seed, m)
                           for b in x.reshape(-1, n)])


@pytest.mark.parametrize("n", [255, 256, 257, 1023, 1024])
def test_packed_route_matches_naive_for_every_batch_size(n):
    # the packing weight 2**n.bit_length() steps up between 255 and 256 and
    # between 1023 and 1024; odd batch sizes leave a row's weighted half empty
    rng = np.random.default_rng(n)
    m = n // 2 + 3
    seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
    workspace = extractor._Workspace(n, m)
    for k in (*range(1, 9), 3, 8, 1, 11, 16, 21):
        x = rng.integers(0, 2, k * n, dtype=np.uint8)
        want = naive_blocks(x, seed, m)
        np.testing.assert_array_equal(toeplitz_hash(x, ToeplitzSeed(seed, "t"), m), want)
        # one workspace reused across batch sizes, as a pool thread does
        got = toeplitz_hash(x, ToeplitzSeed(seed, "t"), m, workspace=workspace)
        np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError, match="workspace"):
        toeplitz_hash(x[:n + 1], ToeplitzSeed(np.ones(n + m, np.uint8), "t"), m,
                      workspace=workspace)


@pytest.mark.parametrize("n", [(1 << 18) - 1, 1 << 18])
def test_packing_cutoff_matches_naive_at_the_largest_counts(n):
    # all-ones input against an all-ones seed counts n in every position,
    # the largest packed value; two blocks per row below 2**18 bits, one above
    m = 24
    assert extractor._Workspace(n, m).pack == (2 if n < 1 << 18 else 1)
    rng = np.random.default_rng(n)
    ones = np.ones(n + m - 1, dtype=np.uint8)
    for seed, x in ((ones, np.ones(8 * n, np.uint8)),
                    (rng.integers(0, 2, n + m - 1, dtype=np.uint8),
                     rng.integers(0, 2, 3 * n, dtype=np.uint8))):
        slot = np.zeros(1)
        got = toeplitz_hash(x, ToeplitzSeed(seed, "t"), m, residual=slot)
        np.testing.assert_array_equal(got, naive_blocks(x, seed, m))
        assert slot[0] < extractor._MAX_ROUNDING_RESIDUAL / 1000


def test_all_ones_at_operating_width_matches_naive():
    n, m = 12320, 8316
    ones = np.ones(n + m - 1, dtype=np.uint8)
    x = np.ones(3 * n, np.uint8)  # one full packed row, one half-empty
    np.testing.assert_array_equal(toeplitz_hash(x, ToeplitzSeed(ones, "t"), m),
                                  naive_blocks(x, ones, m))


def test_toeplitz_seed_bits_are_checked_once(monkeypatch):
    rng = np.random.default_rng(73)
    n, m = 64, 40
    seed = ToeplitzSeed(rng.integers(0, 2, n + m - 1, dtype=np.uint8), "t")
    x = rng.integers(0, 2, 3 * n, dtype=np.uint8)
    checked = []
    exact_check = extractor._check_bits
    monkeypatch.setattr(extractor, "_check_bits",
                        lambda name, bits: checked.append(name) or exact_check(name, bits))
    toeplitz_hash(x, seed, m)
    assert checked == ["input"]


def test_toeplitz_hash_rejects_a_bare_seed_array():
    rng = np.random.default_rng(79)
    n, m = 64, 40
    bits = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
    x = rng.integers(0, 2, n, dtype=np.uint8)
    for bare in (bits, bits.tolist()):
        with pytest.raises(TypeError, match="ToeplitzSeed"):
            toeplitz_hash(x, bare, m)


def test_naive_chunk_is_capped_by_bytes():
    budget = NAIVE_CHUNK_BYTES
    assert 32 << 20 <= budget <= 128 << 20
    # a 16M-bit block gets 4 rows (64 MiB), not the 32 GB of 2048 rows
    n = 16 * 2 ** 20
    rows = naive_chunk_rows(n)
    assert rows * n <= budget
    assert (rows + 1) * n > budget
    assert naive_chunk_rows(budget + 1) == 1
    assert naive_chunk_rows(10 ** 12) == 1
    assert naive_chunk_rows(1) == budget


def test_serialize_samples_twos_complement_msb_first():
    got = serialize_samples(np.array([0, 1, -1, -128, 127]), 8)
    want = np.concatenate([
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 1, 1, 1, 1, 1, 1],
    ]).astype(np.uint8)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(serialize_samples(np.array([-8, 7, -1]), 4),
                                  [1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1])

    rng = np.random.default_rng(13)
    for bits in range(2, 17):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        codes = np.concatenate(([lo, hi, -1, 0], rng.integers(lo, hi + 1, 50)))
        flat = serialize_samples(codes, bits)
        text = "".join(format((int(c) + (1 << bits)) % (1 << bits),
                              f"0{bits}b") for c in codes)
        np.testing.assert_array_equal(flat,
                                      np.array([int(c) for c in text],
                                               dtype=np.uint8))
    with pytest.raises(ValueError):
        serialize_samples(np.array([128]), 8)
    with pytest.raises(ValueError):
        serialize_samples(np.array([0]), 1)


def test_pack_unpack_roundtrip(tmp_path):
    # seed files pack bits MSB-first and zero-pad the final byte
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, 77, dtype=np.uint8)
    path = tmp_path / "toeplitz.seed"
    write_seed_file(path, ToeplitzSeed(bits, "t"))
    assert len(path.read_bytes()) == 10
    np.testing.assert_array_equal(read_seed_file(path, 77).bits, bits)
    write_seed_file(path, ToeplitzSeed(np.array([1], np.uint8), "t"))
    assert path.read_bytes() == b"\x80"
    path.write_bytes(b"\xa5")
    assert read_seed_file(path, 8).bits.tolist() == [1, 0, 1, 0, 0, 1, 0, 1]


def test_seed_file_roundtrip(tmp_path):
    seed = prng_seed(20635, 42)
    assert seed.provenance == "test-prng-insecure"
    np.testing.assert_array_equal(seed.bits, prng_seed(20635, 42).bits)
    path = tmp_path / "toeplitz.seed"
    write_seed_file(path, seed)
    assert path.stat().st_size == (20635 + 7) // 8
    back = read_seed_file(path, 20635)
    np.testing.assert_array_equal(back.bits, seed.bits)
    assert back.provenance.startswith("file:")
    with pytest.raises(ValueError, match="bytes"):
        read_seed_file(path, 20636 + 8)
    with pytest.raises(ValueError, match="holds more than 2579 bytes, need exactly 2579"):
        read_seed_file(path, 20635 - 8)  # one byte too long
    with pytest.raises(ValueError):
        ToeplitzSeed(np.array([0, 1, 2]), "t")
    with pytest.raises(ValueError):
        prng_seed(0, 1)


def test_oversized_seed_file_is_rejected_without_reading_it(tmp_path):
    # a device such as /dev/urandom never ends: the reader must stop one byte
    # past the seed.  A file 1 MiB too long shows it in the allocations.
    path = tmp_path / "toeplitz.seed"
    path.write_bytes(b"\x00" * (10 + (1 << 20)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="need exactly 10"):
            read_seed_file(path, 77)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_seed_keeps_a_checked_read_only_copy():
    # a list seed used to be kept as the list, so len() raised AttributeError
    seed = ToeplitzSeed([0, 1, 1], "t")
    assert len(seed) == 3
    assert seed.bits.dtype == np.uint8
    assert not seed.bits.flags.writeable
    np.testing.assert_array_equal(toeplitz_hash([1, 0], seed, 2),
                                  oracle_toeplitz([1, 0], [0, 1, 1], 2))
    # the caller's array stays writable and later writes cannot reach the seed
    bits = np.array([True, False, True, True])
    seed = ToeplitzSeed(bits, "t")
    bits[0] = False
    assert seed.bits.tolist() == [1, 0, 1, 1]
    assert bits.flags.writeable
    with pytest.raises(ValueError):
        seed.bits[0] = 0
    with pytest.raises(ValueError):
        ToeplitzSeed([0.5, 1.0], "t")


def test_extract_stream_against_full_oracle():
    plan = plan_extraction(8, cert(5.53, -20), 5.0)
    assert (plan.samples_per_block, plan.output_bits) == (76, 380)
    rng = np.random.default_rng(19)
    blocks = _code_blocks(rng, [100, 100, 100], clipped=[2, 3, 0])
    seed = prng_seed(plan.seed_bits, 23)
    packed, report = extract_stream(blocks, plan, seed)

    assert report.samples_in == 300
    assert report.samples_used == 228  # trailing partial block discarded
    assert report.blocks == 3
    assert report.raw_bits == 228 * 8
    assert report.output_bits == 3 * 380
    assert report.clipped_samples == 5
    assert plan.bits_per_sample_effective == pytest.approx(5.0, abs=1e-12)
    assert packed.size == (3 * 380 + 7) // 8

    codes = np.concatenate([b.codes for b in blocks])[:228]
    chunks = codes.reshape(3, 76)
    want_bits = np.concatenate([
        oracle_toeplitz(serialize_samples(c, 8), seed.bits, 380)
        for c in chunks])
    np.testing.assert_array_equal(packed, np.packbits(want_bits))


def test_extract_stream_determinism_threads_and_oracle():
    plan = plan_extraction(8, cert(5.53, -20), 5.0)
    rng = np.random.default_rng(29)
    blocks = _code_blocks(rng, [500, 90 * 76])  # 96 blocks, 12 batches
    seed = prng_seed(plan.seed_bits, 31)
    ref, _ = extract_stream(blocks, plan, seed)
    again, _ = extract_stream(blocks, plan, seed)
    np.testing.assert_array_equal(ref, again)
    # more workers than cores, switching threads as often as possible
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded, _ = extract_stream(blocks, plan, seed, threads=4)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(ref, threaded)
    # the first and the last batch against the per-block oracle
    m = plan.output_bits
    chunks = np.concatenate([b.codes for b in blocks])[:96 * 76].reshape(96, 76)
    hashed = np.unpackbits(ref)[:96 * m].reshape(96, m)
    for i in (*range(8), *range(88, 96)):
        np.testing.assert_array_equal(
            hashed[i], oracle_toeplitz(serialize_samples(chunks[i], 8), seed.bits, m))
    other, _ = extract_stream(blocks, plan, prng_seed(plan.seed_bits, 32))
    assert not np.array_equal(ref, other)


@pytest.mark.parametrize("bits_per_sample", [8, 12])
def test_extract_stream_batch_edges_match_oracle(bits_per_sample):
    plan = plan_extraction(bits_per_sample, cert(5.53, -10), 5.0)
    m = plan.output_bits
    assert m % 8
    rng = np.random.default_rng(67 + bits_per_sample)
    codes = _code_blocks(rng, [17 * plan.samples_per_block],
                         adc_bits=bits_per_sample)[0].codes
    seed = prng_seed(plan.seed_bits, 71)
    oracle = [oracle_toeplitz(serialize_samples(c, bits_per_sample), seed.bits, m)
              for c in codes.reshape(17, plan.samples_per_block)]
    for n_blocks in (1, 7, 8, 9, 17):
        # a partial trailing sample block on top, discarded as usual
        used = n_blocks * plan.samples_per_block
        block = RawSampleBlock(codes=codes[:used + plan.samples_per_block // 2],
                               config=MeasurementConfig(adc_bits=bits_per_sample))
        want = np.packbits(np.concatenate(oracle[:n_blocks]))
        for threads in (1, 2, 3):
            packed, report = extract_stream([block], plan, seed,
                                            threads=threads)
            assert report.blocks == n_blocks
            assert report.output_bits == n_blocks * m
            assert packed.dtype == np.uint8
            assert packed.tobytes() == want.tobytes()


def test_extract_stream_operating_point_accounting():
    plan = plan_extraction(8, cert(5.53, -100), 5.4)
    rng = np.random.default_rng(37)
    blocks = _code_blocks(rng, [30 * 1540 + 50])
    seed = prng_seed(plan.seed_bits, 41)
    packed, report = extract_stream(blocks, plan, seed)
    threaded, _ = extract_stream(blocks, plan, seed, threads=2)
    assert threaded.tobytes() == packed.tobytes()
    assert report.blocks == 30
    assert plan.bits_per_sample_effective == pytest.approx(5.4, abs=1e-12)
    rate = equivalent_bit_rate(report.pulse_rate, plan.bits_per_sample_effective)
    assert plan.slack_bits >= 0.0
    assert plan.slack_bits == pytest.approx(0.2, abs=1e-6)
    assert report.output_bits == 249480
    assert rate == 270000000.0


def test_extract_stream_refusals():
    plan = plan_extraction(8, cert(5.53, -20), 5.0)
    rng = np.random.default_rng(43)
    blocks = _code_blocks(rng, [200])
    seed = prng_seed(plan.seed_bits, 47)
    with pytest.raises(ValueError, match="seed"):
        extract_stream(blocks, plan, prng_seed(plan.seed_bits - 1, 1))
    with pytest.raises(ValueError):
        extract_stream([], plan, seed)
    with pytest.raises(ValueError, match="cannot fill"):
        extract_stream(_code_blocks(rng, [10]), plan, seed)
    with pytest.raises(ValueError, match="threads"):
        extract_stream(blocks, plan, seed, threads=0)
    wide = RawSampleBlock(codes=np.array([0, 1], dtype=np.int16),
                          config=MeasurementConfig(adc_bits=12))
    with pytest.raises(ValueError, match="12-bit"):
        extract_stream([wide], plan, seed)


def test_extract_stream_cuts_batches_across_block_edges():
    # hash blocks and 8-block batches straddle the edges of input blocks
    # of awkward sizes; a one-shot generator of them hashes as one block
    plan = plan_extraction(8, cert(5.53, -20), 5.0)
    n, m = plan.samples_per_block, plan.output_bits
    sizes = [3 * n + 5, 7, 9 * n - 1, 5 * n + 3, 8 * n, 1, 6 * n - 2]
    rng = np.random.default_rng(79)
    blocks = _code_blocks(rng, sizes, clipped=list(range(len(sizes))))
    seed = prng_seed(plan.seed_bits, 83)
    whole = RawSampleBlock(codes=np.concatenate([b.codes for b in blocks]),
                           config=blocks[0].config, clipped=sum(range(len(sizes))))
    want, want_report = extract_stream([whole], plan, seed)
    assert want_report.blocks == sum(sizes) // n == 31
    for threads in (1, 3):
        packed, report = extract_stream((b for b in blocks), plan, seed,
                                        threads=threads)
        assert packed.tobytes() == want.tobytes()
        assert report == want_report
    hashed = np.unpackbits(want)[:31 * m].reshape(31, m)
    for i, chunk in enumerate(whole.codes[:31 * n].reshape(31, n)):
        np.testing.assert_array_equal(
            hashed[i], toeplitz_naive(serialize_samples(chunk, 8), seed.bits, m))


def test_extract_stream_without_blocks_is_refused():
    plan = plan_extraction(8, cert(5.53, -20), 5.0)
    seed = prng_seed(plan.seed_bits, 89)
    for empty in ([], (b for b in ())):
        with pytest.raises(ValueError, match="no input blocks"):
            extract_stream(empty, plan, seed)


def test_extract_stream_memory_does_not_grow_with_the_block_count():
    # blocks made one at a time as they are consumed: a call that holds them
    # all, or their concatenation, peaks higher with every block
    plan = plan_extraction(8, cert(5.53, -100), 5.4)
    seed = prng_seed(plan.seed_bits, 97)
    seed.spectrum
    size = 50 * plan.samples_per_block + 77
    cfg = MeasurementConfig()

    def peak(count):
        rng = np.random.default_rng(101)
        blocks = (RawSampleBlock(codes=rng.integers(-128, 128, size, dtype=np.int16),
                                 config=cfg) for _ in range(count))
        tracemalloc.start()
        try:
            packed, _ = extract_stream(blocks, plan, seed)
            return tracemalloc.get_traced_memory()[1], packed.nbytes
        finally:
            tracemalloc.stop()

    peak_2, out_2 = peak(2)
    peak_8, out_8 = peak(8)
    # six more blocks of codes are 6 * 2 * size bytes; they may add their
    # output and nothing else
    assert peak_8 - peak_2 <= out_8 - out_2 + (128 << 10), (peak_8 - peak_2, out_8 - out_2)
