"""The naive Toeplitz hashing oracle the FFT route is held bit-identical to.

Explicit rows, AND, XOR-reduce: pure GF(2), no floating point.  Row i of
the (m, n) matrix is the reversed seed window ``seed[i : i + n]``, so
``T[i][j] = seed[i + (n - 1) - j]``.  Rows are built a chunk at a time so
that a long block does not need the whole m-by-n matrix in memory.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# memory for one chunk of explicit Toeplitz rows
NAIVE_CHUNK_BYTES = 64 << 20


def naive_chunk_rows(n: int) -> int:
    """Toeplitz rows per chunk so that one chunk of n-bit rows fits the budget."""
    return max(1, NAIVE_CHUNK_BYTES // n)


def toeplitz_naive(x: np.ndarray, seed: np.ndarray, m: int) -> np.ndarray:
    """Hash the n bits of ``x`` down to ``m`` with the seed's Toeplitz matrix."""
    n = x.size
    windows = sliding_window_view(seed, n)  # windows[i] = seed[i : i + n]
    out = np.empty(m, dtype=np.uint8)
    chunk = naive_chunk_rows(n)
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        rows = windows[start:stop, ::-1]     # row i of T = reversed window i
        out[start:stop] = np.bitwise_xor.reduce(rows & x, axis=1)
    return out
