"""Index encodings and size caps shared by the orbit scan, the oracle, the
cycle index and the simulator.

A word of n base-k digits is encoded most-significant-digit first, so index
order is lexicographic order (for k = 2, qubit 0 is the most significant
bit).  Nothing here computes a dimension, so the routes stay independent.
Each cap is checked where the allocation it bounds is made.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

DEFAULT_ORDER_CAP = 10**6  # group elements listed one by one
DEFAULT_SPACE_CAP = 4**12  # words in an orbit-label scan
MAX_LISTED_WORDS = 4**10  # words held as strings by an orbit listing
DEFAULT_MATRIX_CAP = 2**12  # side of a dense 2^N x 2^N matrix
MAX_ORACLE_QUBITS = 6  # 64x64 matrices over a 4095-element basis
# float64 entries of the oracle's constraint matrix: 2 * 4^N rows per
# generator times 4^N - 1 columns.  2^27 (1 GiB) admits every generator set
# up to 6 qubits, the largest being S:3xS:3 and D:3xD:3 with 4 generators
# (32768 x 4095); it refuses longer generator lists passed in directly.
MAX_CONSTRAINT_ENTRIES = 2**27
MAX_CYCLE_INDEX_TERMS = 10**5  # cycle types of S_n or A_n: p(45) = 89,134 < cap < p(46)


def digit_action(p: Sequence[int], k: int) -> np.ndarray:
    """``apply_to_tuple(p, .)`` on every base-k index: digit j of out[i] is
    digit p[j] of i."""
    n = len(p)
    idx = np.arange(k**n, dtype=np.int64)
    out = np.zeros_like(idx)
    for j in range(n):
        digit = (idx // k ** (n - 1 - p[j])) % k
        out += digit * k ** (n - 1 - j)
    return out


def index_to_word(index: int, n: int) -> Tuple[int, ...]:
    """The length-n base-4 word (a Pauli string) that `index` encodes."""
    # from a list, not a generator: the tuple is then allocated at its exact size
    return tuple([(index >> (2 * j)) & 3 for j in range(n - 1, -1, -1)])


@lru_cache(maxsize=None)
def hamming_weights(n: int) -> np.ndarray:
    """Read-only table of the number of set bits of every index below 2^n."""
    weights = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        weights = np.concatenate([weights, weights + 1])
    weights.flags.writeable = False
    return weights


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
