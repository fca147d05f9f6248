"""Independent numerical verification by plain linear algebra.

The combinatorial dimension formulas are cross-checked here without any
cycle-index machinery: the commutant of a set of matrices is computed as the
nullspace of the linear map c -> [B, sum_j c_j * i*P_j] over the Pauli
coefficient basis, so skew-Hermiticity and tracelessness are built into the
parametrization instead of being extra constraints.  Commuting with a
group's generators suffices: the commutant of a generating set equals the
commutant of the whole group.

Ranks come from singular values with a relative threshold plus a mandatory
gap check, so a borderline spectrum raises instead of silently producing a
wrong dimension.  Both are module constants.

The constraint matrix is mostly exact zeros (1-3% nonzero at N = 5 for
permutation generators), so only its nonzero entries are built.  Permuted,
it is block diagonal: a block is a connected component of the bipartite
graph joining each row to the columns where it is nonzero.  Permuting rows
and columns is an orthogonal change of basis on both sides, so the matrix's
singular values are exactly the union of the blocks', padded with zeros:
one per column beyond its block's row count, and one per all-zero column.
Each block is filled densely for its own SVD, and the merged values are
classified as one spectrum, so the tolerance stays relative to the largest
singular value overall.  A dense generator (a random unitary, say) gives a
single block, which is one SVD of the whole matrix.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .combinatorics import AnySpec
from .errors import ConstraintCapExceeded, IndeterminateRank, MatrixSizeCapExceeded
from .indexing import (CHUNK_ENTRIES, MAX_CONSTRAINT_ENTRIES, MAX_ORACLE_QUBITS, hamming_weights,
                       matrix_side, pauli_columns, pauli_sum, word_digits)
from .permutation_rep import group_generators, qubit_permutation_matrix

__all__ = [
    "CommutantReport",
    "commutant_dimension",
    "commutant_nullspace",
    "group_constraint_matrices",
    "energy_hamiltonian",
    "block_profile",
    "weight_sort_permutation",
    "is_block_diagonal",
    "exp_membership_check",
]

# Rank policy: singular values above RTOL * sigma_max count, and the smallest
# counted one must exceed the largest rejected one by GAP_FACTOR.
RTOL = 1e-8
GAP_FACTOR = 10.0


@dataclass(frozen=True)
class CommutantReport:
    """Outcome of a commutant-dimension computation."""

    n_qubits: int
    constraint_count: int
    rank: int
    dimension: int
    tolerance: float
    singular_value_gap: float

    def to_json(self) -> dict:
        # an unbounded gap (nothing rejected) serializes as null: bare
        # Infinity is not valid JSON
        gap = self.singular_value_gap
        return {**asdict(self), "singular_value_gap": None if math.isinf(gap) else gap}


def _classify_singular_values(svals: np.ndarray) -> Tuple[int, float, float]:
    """Split singular values into accepted/rejected; returns (rank, tol, gap).

    The gap is the ratio between the smallest accepted and largest rejected
    value (inf when either side is empty); `_report_from_svals` holds it to
    GAP_FACTOR.
    """
    if svals.size == 0 or svals[0] == 0.0:
        return 0, 0.0, math.inf
    tol = RTOL * float(svals[0])
    rank = int(np.count_nonzero(svals > tol))
    if rank == 0 or rank == svals.size:
        return rank, tol, math.inf
    largest_rejected = float(svals[rank])
    if largest_rejected == 0.0:
        return rank, tol, math.inf
    return rank, tol, float(svals[rank - 1]) / largest_rejected


def _check_qubits(n_qubits: int) -> None:
    """The oracle's qubit cap, checked before any 2^N x 2^N matrix exists."""
    if n_qubits > MAX_ORACLE_QUBITS:
        raise MatrixSizeCapExceeded(1 << n_qubits, 1 << MAX_ORACLE_QUBITS)


ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def _constraint_matrix(generators: Sequence[np.ndarray], n_qubits: int) -> np.ndarray:
    """Nonzero entries of the real matrix of the map from Pauli coefficients
    to stacked commutators, as `ENTRY` records in column-then-row order.

    Column j holds the real and then the imaginary parts of [B, i*P_(j+1)]
    for each generator B in turn.  As i*P_w sends column c to row c ^ x_w
    with value i*v_w[c] (`pauli_columns`), a nonzero B[a, c] gives
    i*v_w[c ^ x_w]*B[a, c] at (a, c ^ x_w) and -i*v_w[a]*B[a, c] at
    (a ^ x_w, c).  Only entries of one word coincide, so each chunk of
    words sums its own duplicates and drops exact zeros.
    """
    _check_qubits(n_qubits)
    dim = 1 << n_qubits
    n_basis = 4**n_qubits - 1
    for b in generators:
        if b.shape != (dim, dim):
            raise ValueError(f"generator shape {b.shape} does not match {dim}x{dim}")
    per_word = 4 * sum(int(np.count_nonzero(b)) for b in generators)
    if per_word * n_basis > MAX_CONSTRAINT_ENTRIES:
        raise ConstraintCapExceeded(per_word * n_basis, MAX_CONSTRAINT_ENTRIES)
    if not per_word:  # no generators, or only zero ones
        return np.empty(0, ENTRY)
    n_rows = 2 * dim * dim * len(generators)
    stacked = np.stack(generators)
    g, a, c = np.nonzero(stacked)
    b = stacked[g, a, c]
    parts = []
    # a candidate entry costs 40-60 bytes across its key, term, value and the
    # unique/inverse sort, so CHUNK_ENTRIES // 4 of them keep a chunk to 3-4 MB
    chunk = max(1, CHUNK_ENTRIES // 4 // per_word)
    for start in range(0, n_basis, chunk):
        words = np.arange(start, min(start + chunk, n_basis))
        targets, values = pauli_columns(word_digits(words + 1, n_qubits))
        bp_col, pb_row = targets[:, c], targets[:, a]  # c ^ x_w and a ^ x_w
        # key = column * n_rows + row; imaginary parts sit dim^2 rows below
        at = words[:, None] * n_rows + 2 * dim * dim * g
        keys = np.concatenate([at + a * dim + bp_col, at + pb_row * dim + c]).ravel()
        terms = np.concatenate([b * np.take_along_axis(1j * values, bp_col, 1),
                                -1j * values[:, a] * b]).ravel()
        vals = np.concatenate([terms.real, terms.imag])
        keys, inverse = np.unique(np.concatenate([keys, keys + dim * dim])[vals != 0],
                                  return_inverse=True)
        vals = np.bincount(inverse, weights=vals[vals != 0])
        part = np.empty(keys.size, ENTRY)
        part["col"], part["row"] = np.divmod(keys, n_rows)
        part["value"] = vals
        parts.append(part[vals != 0])
    return np.concatenate(parts)


def _union(parent: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Merge the sets holding u[i] and v[i], in place.

    `parent` must point every element at its root on entry and does so again
    on return; a root is hooked under the smallest root it meets, so roots
    are the smallest members of their sets.
    """
    while True:
        pu, pv = parent[u], parent[v]
        split = pu != pv
        if not split.any():
            return
        np.minimum.at(parent, np.maximum(pu, pv)[split], np.minimum(pu, pv)[split])
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent[:] = grand


def _distinct(values: np.ndarray) -> np.ndarray:
    # the sorted distinct values, as np.unique gives them; np.unique without a
    # return flag imports numpy.ma (NumPy 2.4), which a fresh process pays for
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], np.diff(ordered) != 0))]


def _blocks(entries: np.ndarray, shape: Tuple[int, int]) -> Tuple[Iterator[tuple], np.ndarray]:
    """The independent blocks of a matrix given by shape and `ENTRY` records,
    each as (rows, cols, records), plus its all-zero columns.

    Two columns share a block when a row has a nonzero entry in both,
    directly or through a chain of rows: the connected components of the
    bipartite row/column graph.  All-zero rows belong to no block.  Indices
    are ascending within each block.  One argsort orders the records by
    block, and the blocks are yielded one at a time, each gathering only
    its own records, so no sorted copy of all of them is made.
    """
    n_rows, n_cols = shape
    rows, cols = entries["row"], entries["col"]
    first = np.full(n_rows, n_cols)  # first nonzero column of each row
    np.minimum.at(first, rows, cols)
    parent = np.arange(n_cols)
    for start in range(0, entries.size, CHUNK_ENTRIES):
        _union(parent, first[rows[start:start + CHUNK_ENTRIES]], cols[start:start + CHUNK_ENTRIES])
    block = np.unique(parent, return_inverse=True)[1][cols]  # numbered by ascending root
    order = np.argsort(block, kind="stable")
    stops = np.cumsum(np.bincount(block, minlength=n_cols)).tolist()
    del block

    def gather() -> Iterator[tuple]:
        for start, stop in zip([0, *stops], stops):
            if stop > start:
                records = entries[order[start:stop]]
                yield _distinct(records["row"]), _distinct(records["col"]), records

    return gather(), np.flatnonzero(np.bincount(cols, minlength=n_cols) == 0)


def _block_svds(entries: np.ndarray, shape: Tuple[int, int], compute_uv: bool):
    """Singular values of a matrix given by shape and `ENTRY` records, from
    one SVD per block, plus the factors a nullspace needs.

    Returns (svals, factors, empty).  svals are what one `np.linalg.svd` of
    the whole matrix gives: min(shape) values, descending.  With
    `compute_uv`, factors holds (cols, block svals, block vh) per block, vh
    square so that its rows span all of the block's columns; otherwise it
    is empty.  `empty` lists the all-zero columns.
    """
    blocks, empty = _blocks(entries, shape)
    parts, factors = [], []
    for rows, cols, rec in blocks:
        block = np.zeros((rows.size, cols.size))
        block[np.searchsorted(rows, rec["row"]), np.searchsorted(cols, rec["col"])] = rec["value"]
        if compute_uv:
            # vh must span the whole column space, null directions included
            _, s, vh = np.linalg.svd(block, full_matrices=rows.size < cols.size)
            factors.append((cols, s, vh))
        else:
            s = np.linalg.svd(block, compute_uv=False)
        parts.append(s)
    zeros = np.zeros(min(shape) - sum(s.size for s in parts))
    return np.sort(np.concatenate(parts + [zeros]))[::-1], factors, empty


def _report_from_svals(svals: np.ndarray, n_qubits: int,
                       constraint_count: int) -> CommutantReport:
    rank, tol, gap = _classify_singular_values(svals)
    report = CommutantReport(
        n_qubits=n_qubits,
        constraint_count=constraint_count,
        rank=rank,
        dimension=4**n_qubits - 1 - rank,
        tolerance=tol,
        singular_value_gap=gap,
    )
    if gap < GAP_FACTOR:
        raise IndeterminateRank(
            f"singular-value gap {gap:.3g} below required factor {GAP_FACTOR}: {report}")
    return report


def commutant_dimension(generators: Sequence[np.ndarray], n_qubits: int) -> CommutantReport:
    """Dimension of {a in su(2^N) : [B, a] = 0 for every generator B}."""
    shape = (2 * 4**n_qubits * len(generators), 4**n_qubits - 1)
    svals, _, _ = _block_svds(_constraint_matrix(generators, n_qubits), shape, compute_uv=False)
    return _report_from_svals(svals, n_qubits, shape[0])


def commutant_nullspace(generators: Sequence[np.ndarray], n_qubits: int
                        ) -> Tuple[CommutantReport, np.ndarray]:
    """Report plus an orthonormal Pauli-coefficient basis of the commutant.

    Row k of the returned array holds the coefficients c with
    a = sum_j c_j * i*P_j a commutant element.  Each row is supported on
    the columns of one block of the constraint matrix; without generators
    every column is empty and the basis is the identity.
    """
    shape = (2 * 4**n_qubits * len(generators), 4**n_qubits - 1)
    svals, factors, empty = _block_svds(_constraint_matrix(generators, n_qubits), shape,
                                        compute_uv=True)
    report = _report_from_svals(svals, n_qubits, shape[0])
    basis = np.zeros((report.dimension, shape[1]))
    k = 0
    for cols, s, vh in factors:
        null = vh[np.count_nonzero(s > report.tolerance):]
        basis[k:k + len(null), cols] = null
        k += len(null)
    basis[k + np.arange(empty.size), empty] = 1.0
    return report, basis


def coefficients_to_operator(coefficients: np.ndarray, n_qubits: int) -> np.ndarray:
    """Assemble sum_j c_j * i*P_j from a Pauli coefficient vector of length
    4^N - 1, from the columns of the words with nonzero coefficients."""
    matrix_side(n_qubits)
    coefficients = np.asarray(coefficients)
    if coefficients.shape != (4**n_qubits - 1,):
        raise ValueError(f"expected {4**n_qubits - 1} Pauli coefficients at "
                         f"{n_qubits} qubits, got shape {coefficients.shape}")
    nonzero = np.flatnonzero(coefficients)
    return pauli_sum(word_digits(nonzero + 1, n_qubits), 1j * coefficients[nonzero])


def group_constraint_matrices(spec: AnySpec) -> List[np.ndarray]:
    """The generators' representation matrices U_alpha, the only ones to
    constrain against: the commutant of a generating set is the commutant of
    the whole group, so no element is ever listed.

    The oracle's qubit cap is checked first, before any matrix exists.
    """
    _check_qubits(spec.degree)
    return [qubit_permutation_matrix(p) for p in group_generators(spec)]


def energy_hamiltonian(n: int) -> np.ndarray:
    """Diagonal matrix whose entry at basis state b is the Hamming weight of b,
    under the oracle's qubit cap."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_qubits(n)
    return np.diag(hamming_weights(n).astype(np.complex128))


def block_profile(n: int) -> List[int]:
    """Eigenspace sizes of the weight Hamiltonian: [C(N,0), ..., C(N,N)]."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [math.comb(n, i) for i in range(n + 1)]


def weight_sort_permutation(n: int) -> np.ndarray:
    """Index order sorting basis states by Hamming weight (stable), i.e. the
    basis change that brings weight-commuting operators to block form."""
    matrix_side(n)
    return np.argsort(hamming_weights(n), kind="stable")


def is_block_diagonal(a: np.ndarray, profile: Sequence[int], tol: float) -> bool:
    """True when all entries outside the given diagonal blocks are <= tol."""
    total = sum(profile)
    if a.shape != (total, total):
        raise ValueError(f"profile sums to {total} but matrix is {a.shape}")
    mask = np.ones_like(a, dtype=bool)
    start = 0
    for size in profile:
        mask[start:start + size, start:start + size] = False
        start += size
    if not mask.any():
        return True
    return float(np.max(np.abs(a[mask]))) <= tol


def _expm_skew_hermitian(a: np.ndarray) -> np.ndarray:
    # a = iH with H Hermitian, so exponentiate by unitary eigendecomposition.
    h = -1j * a
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def exp_membership_check(a: np.ndarray, generators: Sequence[np.ndarray],
                         tol: float = 1e-9) -> bool:
    """Check that exp maps an invariant-algebra element into the invariant
    unitary group: exp(a) must be unitary, have determinant one, and commute
    with every generator.

    Preconditions (violations raise): a is skew-Hermitian, traceless, and
    commutes with the generators to `tol` relative to the operand norms.
    """
    scale = max(1.0, float(np.linalg.norm(a)))
    if np.linalg.norm(a + a.conj().T) > tol * scale:
        raise ValueError("input is not skew-Hermitian")
    if abs(np.trace(a)) > tol * scale:
        raise ValueError("input is not traceless")
    for b in generators:
        bound = tol * max(1.0, float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
        if np.linalg.norm(a @ b - b @ a) > bound:
            raise ValueError("input does not commute with the generators")

    u = _expm_skew_hermitian(a)
    dim = a.shape[0]
    if np.linalg.norm(u @ u.conj().T - np.eye(dim)) > tol * dim:
        return False
    if abs(np.linalg.det(u) - 1.0) > tol * dim:
        return False
    for b in generators:
        bound = tol * max(1.0, float(np.linalg.norm(u)) * float(np.linalg.norm(b)))
        if np.linalg.norm(u @ b - b @ u) > bound:
            return False
    return True
