"""Dense reference build of the commutant oracle's constraint matrix.

Each i*P_w is a Kronecker product of the single-qubit matrices in
`indexing.SIGMA`, and each commutator [B, i*P_w] is a dense matrix
product, with no use of `indexing.pauli_columns`; so a test that compares
the package's stored entries with this module compares two independent
constructions.  The layout is the package's: column j belongs to word
index j + 1 (digits most significant first, qubit 0 first), and each
generator contributes the real and then the imaginary parts of its
commutator, flattened row-major.  `blocks_from_sorted_copy` is the
block split that sorted a copy of every record before splitting it.
"""

import functools
import itertools

import numpy as np

from symlie.dense_oracle import ENTRY, _union
from symlie.indexing import SIGMA


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


def blocks_from_sorted_copy(entries, shape):
    """`dense_oracle._blocks` as it was before it gathered one block at a
    time: the same components, split from one sorted copy of all records."""
    n_rows, n_cols = shape
    rows, cols = entries["row"], entries["col"]
    first = np.full(n_rows, n_cols)
    np.minimum.at(first, rows, cols)
    parent = np.arange(n_cols)
    _union(parent, first[rows], cols)
    block = np.unique(parent, return_inverse=True)[1][cols]
    order = np.argsort(block, kind="stable")
    parts = np.split(entries[order], np.cumsum(np.bincount(block, minlength=n_cols))[:-1])
    blocks = [(np.unique(p["row"]), np.unique(p["col"]), p) for p in parts if p.size]
    return blocks, np.flatnonzero(np.bincount(cols, minlength=n_cols) == 0)
