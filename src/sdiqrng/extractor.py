"""Seeded randomness extraction with binary Toeplitz hashing.

A Toeplitz matrix T over GF(2) with shape (m, n) is defined by a seed of
n + m - 1 bits: ``T[i][j] = seed[i + (n - 1) - j]``.  Hashing is the
matrix-vector product over GF(2).  Output length follows the leftover-hash
budget

    m = floor(N * h_min_bits - 2 * log2(1 / epsilon))

for a block of N samples, which keeps the extracted block within trace
distance ``epsilon`` of uniform given the certified min-entropy; both come
from the plan's ``entropy.Certificate``.
``plan_extraction`` searches for the smallest N whose budget meets the
requested output bits per sample.

Hashing has one FFT route.  The tests keep a naive oracle beside it
(``tests/naive_toeplitz.py``), deliberately independent and required to
agree bit for bit: a GF(2) row-times-vector product (AND then XOR-reduce,
no floating point).  The FFT route reads
every output parity off an integer count: ``(T x)[i]`` is coefficient
``n - 1 + i`` of the linear convolution of the seed with ``x``.  The seed's
spectrum ``rfft(seed, L)`` (``numpy.fft``, as in ``dsp``) is computed once
per seed, at the 5-smooth ``L = dsp.next_fast_len(n + m - 1)``, and every
block is hashed against it.  A circular convolution of length
``L >= n + m - 1`` is enough: its wrap-around only adds linear coefficients
at index ``L`` and above (at most ``2n + m - 3``) onto indices below
``n - 1``, which are discarded.
``extract_stream`` hashes blocks in batches of eight; eight m-bit outputs
always end on a byte boundary, so each batch packs straight into its own
slice of the output buffer.

Two blocks share one float64 transform row (the digit packing of Percival,
"Rapid multiplication modulo the sum and difference of highly composite
numbers", Math. Comp. 2003): row j holds ``block_j + 2**s * block_{j+h}``
with ``s = n.bit_length()``.  Every count is at most n < 2**s, so the
convolution of a row is the packed count ``c_j + 2**s * c_{j+h}``, and
both parities read off its rounded value as ``c & 1`` and
``(c >> s) & 1``.  Packed counts stay below 2**36 while n < 2**18; from
there on each block takes a row of its own, on the same code path.  The
transform input, spectrum, inverse and rounding buffers are one worker's
workspace, reused batch after batch through numpy.fft's ``out=`` and
in-place ufuncs.  The counts are integers, so float64 rounding must leave
each packed count within 0.25 of one; every call checks that residual and
raises SecurityModelViolation past it.  The residual scales with the
packing weight 2**s: about 1e-8 at the default block sizes.

Sample serialization: each ADC code contributes ``bits_per_sample`` bits of
its two's complement representation, most significant bit first; output
bits pack MSB-first into bytes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import irfft, rfft

from ._io import ordered_map
from .dsp import next_fast_len
from .entropy import Certificate
from .exceptions import InfeasiblePlanError, SecurityModelViolation

# blocks hashed per batch: eight m-bit outputs always fill whole bytes
_BATCH_BLOCKS = 8
# float64 counts further than this from an integer are not trusted
_MAX_ROUNDING_RESIDUAL = 0.25
# blocks shorter than this pack two to a transform row (counts below 2**36)
_PACK_TWO_BELOW = 1 << 18

__all__ = [
    "ExtractionPlan",
    "plan_extraction",
    "ToeplitzSeed",
    "test_prng_seed",
    "read_seed_file",
    "write_seed_file",
    "toeplitz_hash",
    "serialize_samples",
    "extract_stream",
    "AccountingReport",
]


@dataclass(frozen=True)
class ExtractionPlan:
    """Frozen extraction geometry for one run."""

    bits_per_sample: int
    certificate: Certificate
    target_bits_per_sample: float
    samples_per_block: int      # N
    input_bits: int             # n = N * bits_per_sample
    output_bits: int            # m
    seed_bits: int              # n + m - 1

    @property
    def bits_per_sample_effective(self) -> float:
        return self.output_bits / self.samples_per_block

    @property
    def security_bits(self) -> float:
        return -2.0 * math.log2(self.certificate.epsilon)

    @property
    def slack_bits(self) -> float:
        """Leftover-hash slack per block: N*h - 2*log2(1/eps) - m >= 0."""
        return (self.samples_per_block * self.certificate.h_min_bits
                - self.security_bits - self.output_bits)


def plan_extraction(bits_per_sample: int, certificate: Certificate,
                    target_bits_per_sample: float) -> ExtractionPlan:
    """Smallest block size N whose leftover-hash budget meets the target.

    Raises InfeasiblePlanError when ``target_bits_per_sample`` is not
    strictly below the certified per-sample min-entropy (the floor penalty
    and the epsilon cost must fit into the gap).
    """
    if not isinstance(bits_per_sample, (int, np.integer)) or not 2 <= bits_per_sample <= 16:
        raise ValueError("bits_per_sample must be an integer in [2, 16]")
    h = certificate.h_min_bits
    if h > bits_per_sample:
        raise ValueError(f"h_min_bits must not exceed bits_per_sample, got {h}")
    if target_bits_per_sample <= 0.0:
        raise ValueError("target_bits_per_sample must be positive")
    if target_bits_per_sample >= h:
        raise InfeasiblePlanError(
            f"target {target_bits_per_sample} bits/sample >= certified "
            f"{h} bits/sample")

    security = -2.0 * math.log2(certificate.epsilon)
    # analytic start: N * (h - target) >= security; the floor() then forces
    # at most a few extra increments
    n_start = max(1, int(security / (h - target_bits_per_sample)) - 2)
    tol = 1e-9
    for n_samples in range(n_start, n_start + 10_000_000):
        m = math.floor(n_samples * h - security)
        if m >= 1 and m >= target_bits_per_sample * n_samples - tol:
            n_bits = n_samples * bits_per_sample
            return ExtractionPlan(
                bits_per_sample=int(bits_per_sample), certificate=certificate,
                target_bits_per_sample=target_bits_per_sample,
                samples_per_block=n_samples, input_bits=n_bits,
                output_bits=m, seed_bits=n_bits + m - 1)
    raise InfeasiblePlanError("no feasible block size found")  # pragma: no cover


@dataclass(frozen=True)
class ToeplitzSeed:
    """Seed bits plus a provenance tag recorded in the accounting report.

    ``bits`` may be given as any 0/1 sequence; it is checked once and kept
    as a private read-only ``uint8`` copy, so the check holds for the
    seed's lifetime.
    """

    bits: np.ndarray
    provenance: str

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or bits.size == 0:
            raise ValueError("seed bits must be a non-empty 1-d array")
        _check_bits("seed", bits)
        bits = bits.astype(np.uint8)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def __len__(self):
        return self.bits.size

    @cached_property
    def spectrum(self) -> np.ndarray:
        """``rfft`` of the seed bits, computed on first use and then shared
        read-only by every block hashed with this seed."""
        spectrum = rfft(self.bits.astype(np.float64), next_fast_len(self.bits.size))
        spectrum.flags.writeable = False
        return spectrum


def test_prng_seed(seed_bits: int, rng_seed: int) -> ToeplitzSeed:
    """Deterministic PRNG-derived seed for tests and demos, tagged insecure."""
    if seed_bits <= 0:
        raise ValueError("seed_bits must be positive")
    rng = np.random.default_rng(rng_seed)
    bits = rng.integers(0, 2, size=seed_bits, dtype=np.uint8)
    return ToeplitzSeed(bits=bits, provenance="test-prng-insecure")


def write_seed_file(path, seed: ToeplitzSeed) -> None:
    """Write the seed bits packed MSB-first, the final byte zero-padded."""
    from ._io import write_bytes_atomic
    write_bytes_atomic(path, np.packbits(seed.bits).tobytes())


def read_seed_file(path, seed_bits: int) -> ToeplitzSeed:
    """Load a raw binary seed; the byte length must be exactly ceil(bits/8).

    At most one byte more than that is read, so a device such as
    /dev/urandom or an oversized file is rejected at once."""
    expect = (seed_bits + 7) // 8
    with open(path, "rb") as fh:
        data = fh.read(expect + 1)
    if len(data) != expect:
        held = len(data) if len(data) < expect else f"more than {expect}"
        raise ValueError(
            f"{path}: seed file holds {held} bytes, need exactly {expect} "
            f"for {seed_bits} bits")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:seed_bits]
    return ToeplitzSeed(bits=bits, provenance=f"file:{path}")


def _check_hash_args(x: np.ndarray, seed_bits: int, m: int) -> int:
    """Validate the shapes and the input bits; return the block length
    n = seed_bits - m + 1."""
    if x.ndim != 1 or x.size == 0:
        raise ValueError("input bits must be a non-empty 1-d array")
    if m < 1:
        raise ValueError("output length m must be >= 1")
    n = seed_bits - m + 1
    if n < 1 or x.size % n:
        raise ValueError(
            f"input of {x.size} bits is not a whole number of blocks of "
            f"n = len(seed) - m + 1 = {n} bits")
    _check_bits("input", x)
    return n


def _check_bits(name: str, bits: np.ndarray) -> None:
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError(f"{name} bits must be 0/1")


class _Workspace:
    """One thread's transform buffers for hashing n-bit blocks down to m
    bits, up to ``blocks`` blocks per pass, reused from pass to pass.

    Blocks shorter than ``_PACK_TWO_BELOW`` bits travel two to a float64
    row, the second weighted by ``2**shift`` where ``shift =
    n.bit_length()``: every count is at most n < 2**shift, so both counts
    read back off the one packed integer.  Longer blocks take a row each.
    """

    def __init__(self, n: int, m: int, blocks: int = _BATCH_BLOCKS):
        self.n, self.m = n, m
        self.size = next_fast_len(n + m - 1)
        self.shift = n.bit_length()
        self.pack = 2 if n < _PACK_TWO_BELOW else 1
        self.blocks = blocks
        rows = -(-blocks // self.pack)
        self.packed = np.zeros((rows, self.size))  # columns n.. stay zero
        self.spectra = np.empty((rows, self.size // 2 + 1), dtype=np.complex128)
        self.counts = np.empty((rows, self.size))
        self.rounded = np.empty((rows, m))
        self.whole = np.empty((rows, m), dtype=np.int64)


def _fft_parities(blocks: np.ndarray, spectrum: np.ndarray, ws: _Workspace,
                  out: np.ndarray) -> float:
    """Hash each row of ``blocks`` (k, n), k <= ``ws.blocks``, against one
    seed spectrum into the rows of ``out`` (k, m).

    Returns the rounding residual ``max|c - rint(c)|`` of the packed float64
    counts.  Raises SecurityModelViolation when it exceeds 0.25.
    """
    k, n = blocks.shape
    rows = -(-k // ws.pack)   # row j carries block j and, weighted, block j + rows
    high = k - rows           # rows that carry a weighted block; 0 unpacked
    packed = ws.packed[:rows]
    np.copyto(packed[:high, :n], blocks[rows:])
    packed[:high, :n] *= float(1 << ws.shift)
    packed[:high, :n] += blocks[:high]
    np.copyto(packed[high:, :n], blocks[high:rows])
    spectra = rfft(packed, axis=1, out=ws.spectra[:rows])
    spectra *= spectrum
    counts = irfft(spectra, ws.size, axis=1,
                   out=ws.counts[:rows])[:, n - 1:n - 1 + ws.m]
    rounded = np.rint(counts, out=ws.rounded[:rows])
    counts -= rounded
    residual = float(np.abs(counts, out=counts).max())
    if not residual <= _MAX_ROUNDING_RESIDUAL:  # written so that NaN fails too
        raise SecurityModelViolation(
            f"FFT rounding residual {residual:.3g} exceeds "
            f"{_MAX_ROUNDING_RESIDUAL}; Toeplitz parities are not exact")
    whole = ws.whole[:rows]
    np.copyto(whole, rounded, casting="unsafe")
    np.bitwise_and(whole, 1, out=out[:rows], casting="unsafe")
    np.right_shift(whole[:high], ws.shift, out=whole[:high])
    np.bitwise_and(whole[:high], 1, out=out[rows:], casting="unsafe")
    return residual


def toeplitz_hash(input_bits, seed: ToeplitzSeed, m: int, *,
                  residual: np.ndarray | None = None,
                  workspace: _Workspace | None = None) -> np.ndarray:
    """GF(2) Toeplitz hash of ``input_bits`` down to ``m`` bits per block.

    The input holds one or more back-to-back blocks of
    ``n = len(seed) - m + 1`` bits; each is hashed with the same seed and
    the m-bit outputs are returned concatenated, in a new array.  Input of
    any other length is an error.

    Hashing runs on the FFT route; tests hold it bit-identical to the
    naive oracle of ``tests/naive_toeplitz.py`` across sizes.  The seed must be a
    ``ToeplitzSeed``, which had its bits checked when it was made and
    carries its FFT spectrum across calls; anything else raises TypeError.
    When ``residual`` is given, a one-element float array, the worst rounding
    residual ``max|c - rint(c)|`` is stored there.  ``workspace`` lends the
    transform buffers of one thread (``extract_stream`` keeps one per
    worker); without it the call allocates its own.
    """
    if not isinstance(seed, ToeplitzSeed):
        raise TypeError(f"seed must be a ToeplitzSeed, got {type(seed).__name__}")
    x = np.asarray(input_bits, dtype=np.uint8)
    n = _check_hash_args(x, len(seed), m)
    blocks = x.reshape(-1, n)
    if workspace is None:
        workspace = _Workspace(n, m, min(len(blocks), _BATCH_BLOCKS))
    elif (workspace.n, workspace.m) != (n, m):
        raise ValueError(f"workspace hashes {workspace.n} bits to {workspace.m}, "
                         f"not {n} to {m}")
    out = np.empty((len(blocks), m), dtype=np.uint8)
    step = workspace.blocks
    worst = max(_fft_parities(blocks[i:i + step], seed.spectrum, workspace, out[i:i + step])
                for i in range(0, len(blocks), step))
    if residual is not None:
        residual[0] = worst
    return out.ravel()


def serialize_samples(codes: np.ndarray, bits_per_sample: int) -> np.ndarray:
    """Two's complement bits of each code, MSB first, concatenated."""
    codes = np.asarray(codes)
    if not 2 <= bits_per_sample <= 16:
        raise ValueError("bits_per_sample must be in [2, 16]")
    lo = -(1 << (bits_per_sample - 1))
    hi = (1 << (bits_per_sample - 1)) - 1
    if codes.size and (codes.min() < lo or codes.max() > hi):
        raise ValueError(f"codes outside the {bits_per_sample}-bit two's complement range")
    wrapped = codes.astype(np.uint16) & ((1 << bits_per_sample) - 1)
    if bits_per_sample == 8:
        return np.unpackbits(wrapped.astype(np.uint8))
    shifts = np.arange(bits_per_sample - 1, -1, -1, dtype=np.uint16)
    return ((wrapped[:, None] >> shifts[None, :]) & 1).astype(np.uint8).ravel()


@dataclass(frozen=True)
class AccountingReport:
    """What one extraction run measured of its stream; the certificate and
    the geometry are the plan's."""

    samples_in: int
    samples_used: int
    blocks: int
    raw_bits: int
    output_bits: int
    pulse_rate: float
    clipped_samples: int
    fft_rounding_residual_max: float   # worst max|c - rint(c)| over batches


def extract_stream(blocks, plan: ExtractionPlan, seed: ToeplitzSeed, *,
                   threads: int = 1) -> tuple[np.ndarray, AccountingReport]:
    """Hash a sequence of raw sample blocks into near-uniform output bits.

    ``blocks`` is an iterable of detector.RawSampleBlock, consumed lazily,
    one block at a time.  Their samples are taken as one stream, cut into
    plan-sized blocks (a trailing partial block is discarded and
    accounted), serialized, hashed with the shared seed and concatenated in
    input order.  Returns (packed bytes as uint8 array, report).

    Blocks are hashed eight per ``toeplitz_hash`` call, in batches of 8 * N
    samples numbered from the start of the stream, spread over ``threads``
    workers; a batch whose FFT rounding residual exceeds 0.25 raises
    SecurityModelViolation naming the batch.  A batch may span input
    blocks: fewer than 8 * N samples are carried from one into the next.
    So at any moment the call holds one input block's codes, the carry, the
    batches in flight (``_io.ordered_map`` runs at most ``2 * threads``
    ahead), one transform workspace per worker and the output, which grows
    batch by batch; its memory does not grow with the number of blocks
    beyond the output they hash to.
    """
    if len(seed) != plan.seed_bits:
        raise ValueError(f"seed has {len(seed)} bits, plan needs {plan.seed_bits}")
    if threads < 1:
        raise ValueError("threads must be >= 1")

    n, m = plan.samples_per_block, plan.output_bits
    batch_samples = _BATCH_BLOCKS * n
    samples_in = clipped = 0
    pulse_rate = None

    def batches():
        """The stream's codes in batches of ``batch_samples``, then its last
        whole plan-sized blocks; each a copy, so no input block outlives
        its turn."""
        nonlocal samples_in, clipped, pulse_rate
        carry = np.empty(0, dtype=np.int16)
        for block in blocks:
            if block.config.adc_bits != plan.bits_per_sample:
                raise ValueError(
                    f"block carries {block.config.adc_bits}-bit codes, plan expects "
                    f"{plan.bits_per_sample}")
            if pulse_rate is None:
                pulse_rate = block.config.pulse_rate
            clipped += block.clipped
            codes = np.asarray(block.codes)
            del block
            samples_in += codes.size
            first = 0
            if carry.size:
                first = batch_samples - carry.size
                carry = np.concatenate([carry, codes[:first]])
                if carry.size < batch_samples:
                    continue
                yield carry
            stop = first + (codes.size - first) // batch_samples * batch_samples
            for lo in range(first, stop, batch_samples):
                yield codes[lo:lo + batch_samples].copy()
            carry = codes[stop:].copy()
            del codes   # freed before the next block is read
        tail = carry.size // n * n
        if tail:
            yield carry[:tail]

    seed.spectrum  # computed here, once, so worker threads only read it
    out = bytearray()
    out_lock = threading.Lock()
    workers = threading.local()  # one workspace per worker thread, freed with the call

    def hash_batch(item) -> float:
        batch, codes = item
        k = codes.size // n
        bits = serialize_samples(codes, plan.bits_per_sample)
        ws = getattr(workers, "workspace", None)
        if ws is None or ws.blocks < k:
            ws = workers.workspace = _Workspace(plan.input_bits, m, k)
        residual = np.zeros(1)
        try:
            hashed = toeplitz_hash(bits, seed, m, residual=residual, workspace=ws)
        except SecurityModelViolation as exc:
            first = batch * _BATCH_BLOCKS
            raise SecurityModelViolation(
                f"batch {batch} (blocks {first}..{first + k - 1}): {exc}") from None
        # a batch starts at bit batch * 8 * m: byte batch * m
        packed = np.packbits(hashed)
        start, stop = batch * m, batch * m + packed.size
        with out_lock:   # batches finish out of order on a pool
            if len(out) < stop:
                out.extend(bytes(stop - len(out)))
            out[start:stop] = memoryview(packed)
        return float(residual[0])

    residuals = ordered_map(hash_batch, enumerate(batches()), threads)
    if pulse_rate is None:
        raise ValueError("no input blocks")
    n_blocks = samples_in // n
    if n_blocks == 0:
        raise ValueError(f"{samples_in} samples cannot fill one block of {n}")
    used = n_blocks * n

    report = AccountingReport(
        samples_in=samples_in, samples_used=used, blocks=n_blocks,
        raw_bits=used * plan.bits_per_sample, output_bits=n_blocks * m,
        pulse_rate=pulse_rate, clipped_samples=clipped,
        fft_rounding_residual_max=max(residuals))
    return np.frombuffer(out, dtype=np.uint8), report
