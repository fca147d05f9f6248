"""Index encodings and size caps shared by the orbit scan, the oracle, the
cycle index and the simulator.

A word of n base-k digits is encoded most-significant-digit first, so index
order is lexicographic order (for k = 2, qubit 0 is the most significant
bit).  A Pauli word has digits 0, 1, 2, 3 = I, X, Y, Z, whose 2x2 matrices
are `SIGMA`; only this module derives how a word acts on basis states
(`pauli_columns`), and every dense Pauli operator is built from those
columns.  Bit counts (`hamming_weights`, `popcount`) live here too.  Nothing
here computes a dimension or imports a module that does, so the routes stay
independent and the variance lab loads none of them.  Each cap is checked
where the allocation it bounds is made.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import MatrixSizeCapExceeded

DEFAULT_ORDER_CAP = 10**6  # group elements listed one by one
DEFAULT_SPACE_CAP = 4**12  # words in an orbit-label scan
# words of an orbit listing, held as one table row of N digit characters
# and a separator each (14.7 MB of JSON rows at the cap), not as strings
MAX_LISTED_WORDS = 4**10
DEFAULT_MATRIX_CAP = 2**12  # side of a dense 2^N x 2^N matrix
MAX_ORACLE_QUBITS = 6  # 64x64 matrices over a 4095-element basis
# Stored (row, col, value) entries of the oracle's constraint matrix, 24 bytes
# each, bounded by 4 * (4^N - 1) * sum(nnz(B)); 2^25 (768 MiB) admits every set
# up to 6 qubits (S:3xS:3 and D:3xD:3: 4,193,280) and refuses a dense 64x64 one.
MAX_CONSTRAINT_ENTRIES = 2**25
# Two byte counts of a statevector variance run, each refused above this
# cap before any graph is drawn.  (a) Its dataset's complex128 amplitudes,
# dataset size x 2^n x 16 bytes: 2^30 admits 50 states at n = 20 and
# refuses n = 21.  No batch of that size is built (a statevector chunk
# builds one row chunk's states at a time, see CHUNK_ENTRIES), but the cap
# still refuses exactly the runs it refused when the whole dataset was one
# batch.  (b) What one gradient holds, (layers + 5 x row-chunk rows) x 2^n
# x 16 bytes: a 2^n table per layer (a sample's ZZ phases or a CNOT step's
# gather pair) and five row-chunk batches; the cyclic ansatz at n = 20
# holds 560 MiB.
MAX_STATE_BATCH_BYTES = 2**30
# Vertex subsets a permutation-only variance experiment sweeps, dataset size
# x 2^n.  The sweep and its histogram visit about 36 million subsets a second
# on one core, so 2^28 (about 7.5 s per chunk) admits 50 graphs at n = 22
# and refuses n = 23; a run with a statevector ansatz stops at the state
# batch cap first.
MAX_GRAPH_SUBSETS = 2**28
# Forward states an adjoint gradient keeps at its probed steps, so that only
# the costate is swept back, counted per row chunk of the dataset (see
# CHUNK_ENTRIES): 2^27 holds 163 batches of 50 states at n = 10, 128 row
# chunks of 1 MB from n = 11 to 16 (every probed step of the default
# ansatzes), 64 one-state chunks at n = 17 and 32 at n = 18.
MAX_STORED_STATE_BYTES = 2**27
# Gates of one variance-experiment circuit, whose gate list and fused steps
# are held as Python objects: 2^17 admits the largest default circuit
# (permutation at n = 22, 44 layers of 275 gates: 12,100) and refuses a
# --layers value that would fill memory before the first gradient.
MAX_CIRCUIT_GATES = 2**17
MAX_CYCLE_INDEX_TERMS = 10**5  # cycle types of S_n or A_n: p(45) = 89,134 < cap < p(46)
MAX_DIMENSION_DIGITS = 4300  # Python prints an int of at most this many digits by default
# Entries per chunk of a chunked array build (Pauli columns, orbit-listing
# rows, the oracle's union-find passes, a graph sweep's subsets): bounds
# their temporaries to a few MB whatever the matrix or dataset size.  An
# adjoint gradient's budget covers its sweep's whole working set, the four
# row-chunk batches it holds at once, so each batch and each row chunk of
# graph states a statevector chunk of the variance experiment builds at a
# time holds at most CHUNK_ENTRIES // 4 amplitudes (1 MB), or one row from
# n = 17 on.  The oracle's chunks of words hold CHUNK_ENTRIES // 4 candidate
# entries, since each costs 40-60 bytes of temporaries (key, term, value and
# the unique/inverse sort): 3-4 MB per chunk.
CHUNK_ENTRIES = 2**18


def matrix_side(n_qubits: int) -> int:
    """2^N, the side of a dense N-qubit matrix; refused above DEFAULT_MATRIX_CAP."""
    dim = 1 << n_qubits
    if dim > DEFAULT_MATRIX_CAP:
        raise MatrixSizeCapExceeded(dim, DEFAULT_MATRIX_CAP)
    return dim


def word_digits(words: np.ndarray, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The base-4 digits of each word index as one uint8 row, qubit 0 first,
    written into `out` (words.size x n, any strides) when it is given."""
    if out is None:
        out = np.empty((words.size, n), dtype=np.uint8)
    for j in range(n):  # a column at a time keeps the temporaries one word wide
        out[:, j] = (words >> (2 * (n - 1 - j))) & 3
    return out


# the Pauli matrices I, X, Y, Z, indexed by their digits
SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

# [Y count mod 4, sign parity] -> i^(Y count) * (-1)^parity, from exact powers of i
_COLUMN_VALUES = np.array([1j**k for k in range(4)])[:, None] * np.array([1.0, -1.0])


def pauli_columns(digits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Column form of P_w for each row w of base-4 digits (qubit 0 first):
    column c has its one nonzero entry at row ``rows[w, c]`` = c ^ x, with
    value ``values[w, c]`` = i^(Y count) * (-1)^popcount(c & z), where x has
    the bit of each X or Y factor set and z the bit of each Y or Z factor."""
    n = digits.shape[1]
    bits = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    x = ((digits ^ (digits >> 1)) & 1) @ bits
    z = (digits >> 1) @ bits
    n_y = np.count_nonzero(digits == 2, axis=1)
    cols = np.arange(1 << n)
    parity = hamming_weights(n)[cols & z[:, None]] & 1
    return cols ^ x[:, None], _COLUMN_VALUES[n_y[:, None] % 4, parity]


def pauli_sum(digits: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_w weights[w] * P_w as a dense 2^N x 2^N matrix, for rows w of
    base-4 digits; the words' columns are added a chunk of words at a time,
    so each temporary holds about CHUNK_ENTRIES entries."""
    dim = matrix_side(digits.shape[1])
    out = np.zeros((dim, dim), dtype=np.complex128)
    chunk = max(1, CHUNK_ENTRIES // dim)
    for start in range(0, len(digits), chunk):
        rows, values = pauli_columns(digits[start:start + chunk])
        np.add.at(out, (rows, np.arange(dim)), weights[start:start + chunk, None] * values)
    return out


@lru_cache(maxsize=None)
def hamming_weights(n: int) -> np.ndarray:
    """Read-only table of the number of set bits of every index below 2^n."""
    weights = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        weights = np.concatenate([weights, weights + 1])
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=None)
def _word_weights() -> np.ndarray:
    """Set bits of every 16-bit word."""
    return hamming_weights(16).astype(np.uint8)


def _popcount_by_table(x: np.ndarray) -> np.ndarray:
    """Set bits of each entry of a uint16 or uint32 array, as uint8."""
    weights = _word_weights()
    if x.dtype == np.uint16:
        return np.take(weights, x)
    return np.take(weights, x & 0xFFFF) + np.take(weights, x >> 16)


# set bits of each entry of a uint16 or uint32 array, as uint8; NumPy 2
# counts them without the table's index copies
popcount = getattr(np, "bitwise_count", _popcount_by_table)


@lru_cache(maxsize=None)
def max_partition_degree(cap: int) -> int:
    """Largest n with at most `cap` partitions, p(n) <= cap.

    p(n) follows Euler's pentagonal recurrence, the sum over k >= 1 of
    (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)].  p grows with n, so
    the table stops at the first p(n) above the cap and stays that short.
    """
    p = [1]
    while True:
        n, total, k = len(p), 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        if total > cap:
            return n - 1
        p.append(total)
