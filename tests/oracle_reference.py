"""Dense reference build of the commutant oracle's constraint matrix.

Each i*P_w is a Kronecker product of the single-qubit matrices in
`pauli_orbits.SIGMA`, and each commutator [B, i*P_w] is a dense matrix
product, with no use of `indexing.pauli_columns`; so a test that compares
the package's stored entries with this module compares two independent
constructions.  The layout is the package's: column j belongs to word
index j + 1 (digits most significant first, qubit 0 first), and each
generator contributes the real and then the imaginary parts of its
commutator, flattened row-major.
"""

import functools
import itertools

import numpy as np

from symlie.dense_oracle import ENTRY
from symlie.pauli_orbits import SIGMA


def pauli_basis(n):
    """i*P_w for every nonzero word index w below 4^n, stacked in index order."""
    words = itertools.islice(itertools.product(range(4), repeat=n), 1, None)
    return np.stack([1j * functools.reduce(np.kron, (SIGMA[d] for d in w)) for w in words])


def constraint_matrix(generators, n):
    """The dense real constraint matrix, 2 * 4^n rows per generator by
    4^n - 1 columns."""
    basis = pauli_basis(n)
    parts = []
    for b in generators:
        comm = (b @ basis - basis @ b).reshape(len(basis), -1)
        parts += [comm.real.T, comm.imag.T]
    return np.concatenate(parts) if parts else np.zeros((0, 4**n - 1))


def entries_of(matrix):
    """The exact nonzeros of a dense matrix as `ENTRY` records, in
    column-then-row order, as the package stores its constraint matrix."""
    cols, rows = np.nonzero(matrix.T)
    out = np.empty(rows.size, ENTRY)
    out["row"], out["col"], out["value"] = rows, cols, matrix[rows, cols]
    return out


def scatter(entries, shape):
    """The dense matrix of the given shape holding `entries`."""
    out = np.zeros(shape)
    out[entries["row"], entries["col"]] = entries["value"]
    return out
