"""Amplitude-based reference for the spin-block reduction.

Each state's rho_j come from its 2^n amplitudes: with J+ = sum_q |0><1|_q,
which lowers the Hamming weight w by one, and m = n/2 - w, block j has its
highest weight at w = n/2 - j.  For u_k = (J+)^k psi at that weight (the
image of psi's weight-(w+k) part), rho_j[k, l] = <u_l|Pi_j u_k> / (N_k N_l)
in the basis |j, j - k>, with N_k^2 = k! (2j)! / (2j - k)!, and Pi_j the
Löwdin product over j' > j of (J-J+ - c_j') / (-c_j'),
c_j' = j'(j'+1) - j(j+1), which keeps the highest-weight vectors of spin j.
J+ and J- act by gathers over weight-restricted index arrays; no stabilizer,
histogram or quadrature from the package is used, so comparing
`spin_blocks.graph_spin_states` with `spin_states` compares two independent
constructions.  It also reduces states that are not graph states.
"""

from functools import lru_cache
from typing import List, Optional

import numpy as np

from symlie.indexing import CHUNK_ENTRIES, hamming_weights


@lru_cache(maxsize=None)
def _weight_states(n: int, w: int) -> np.ndarray:
    """Basis indices of Hamming weight w, ascending."""
    return np.flatnonzero(hamming_weights(n) == w)


@lru_cache(maxsize=None)
def _ranks(n: int) -> np.ndarray:
    """Position of every basis index among the indices of its weight."""
    ranks = np.empty(1 << n, dtype=np.int64)
    for w in range(n + 1):
        states = _weight_states(n, w)
        ranks[states] = np.arange(states.size)
    return ranks


@lru_cache(maxsize=None)
def _ladder_table(n: int, target: int, source: int) -> np.ndarray:
    """Per state of weight `target`, the ranks among weight `source` (one
    more or one less) of the states one bit flip away: J+ or J- from
    `source` to `target` is the sum of the gathers by its columns."""
    states = _weight_states(n, target)
    flipped = states[:, None] ^ (1 << np.arange(n))
    adjacent = hamming_weights(n)[flipped] == source
    return _ranks(n)[flipped[adjacent].reshape(states.size, -1)]


def _ladder(v: np.ndarray, table: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_t v[..., table[:, t]], one gather of the output's size at a time."""
    if out is None:
        out = np.empty(v.shape[:-1] + table.shape[:1], dtype=v.dtype)
    np.take(v, table[:, 0], axis=-1, out=out, mode="clip")
    gathered = np.empty_like(out)
    for t in range(1, table.shape[1]):
        out += np.take(v, table[:, t], axis=-1, out=gathered, mode="clip")
    return out


def _highest_weight_part(u: np.ndarray, n: int, w: int) -> np.ndarray:
    """Pi_j u for vectors u of weight w = n/2 - j: the Löwdin product over
    j' = j + t, t = w, ..., 1, of 1 - J-J+ / c_j', c_j' = t (2j + t + 1)."""
    for t in range(w, 0, -1):
        lowered = _ladder(_ladder(u, _ladder_table(n, w - 1, w)), _ladder_table(n, w, w - 1))
        lowered /= -t * (n - 2 * w + t + 1)
        lowered += u
        u = lowered
    return u


def spin_densities(amps: np.ndarray, n: int) -> List[np.ndarray]:
    """rho_j of each row of `amps`: one (rows, 2j+1, 2j+1) array per
    w = n/2 - j = 0 .. n//2, in the basis |j, j>, |j, j-1>, ..., |j, -j>.

    The chains (J+)^i psi_(w+i), i = 0 .. n - w, are carried down the
    weights w = n .. 0; at w <= n/2 the first 2j+1 of them are the u_k.
    """
    rows = amps.shape[0]
    out: List[np.ndarray] = [np.empty(0)] * (n // 2 + 1)
    chains = amps[:, _weight_states(n, n)][:, None, :]
    for w in range(n, -1, -1):
        if w <= n // 2:
            d = n - 2 * w + 1
            u = chains[:, :d]
            rho = np.matmul(_highest_weight_part(u, n, w), u.conj().swapaxes(1, 2))
            # N_k^2 = prod_{t <= k} t (2j - t + 1)
            norms = np.sqrt(np.cumprod([1.0] + [t * (d - t) for t in range(1, d)]))
            out[w] = rho / np.outer(norms, norms)
        if w:
            below = _weight_states(n, w - 1)
            raised = np.empty((rows, chains.shape[1] + 1, below.size), dtype=amps.dtype)
            raised[:, 0] = amps[:, below]
            table = _ladder_table(n, w - 1, w)
            for i in range(chains.shape[1]):
                _ladder(chains[:, i], table, out=raised[:, i + 1])
            chains = raised
    return out


def spin_states(amps: np.ndarray, n: int) -> np.ndarray:
    """The rho_j of each row of `amps` in the padded layout of
    `spin_blocks.graph_spin_states`, reduced about CHUNK_ENTRIES amplitudes
    at a time."""
    rows, step = amps.shape[0], max(1, CHUNK_ENTRIES >> n)
    out = np.zeros((rows, n // 2 + 1, n + 1, n + 1), dtype=amps.dtype)
    for lo in range(0, rows, step):
        for w, rho in enumerate(spin_densities(amps[lo:lo + step], n)):
            out[lo:lo + step, w, w:n + 1 - w, w:n + 1 - w] = rho
    return out
