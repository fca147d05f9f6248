"""Commutant dimensions, energy Hamiltonian structure, exponential map."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import oracle_reference as reference
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pauli_reference import orbit_generator, word_matrix

from symlie import dense_oracle
from symlie.cli import parse_group_spec
from symlie.combinatorics import (
    Family,
    GroupSpec,
    dim_energy_preserving,
    dim_invariant_algebra,
    dimension,
)
from symlie.dense_oracle import (
    _block_svds,
    _blocks,
    _classify_singular_values,
    _constraint_matrix,
    _report_from_svals,
    block_profile,
    coefficients_to_operator,
    commutant_dimension,
    commutant_nullspace,
    energy_hamiltonian,
    exp_membership_check,
    group_constraint_matrices,
    is_block_diagonal,
    weight_sort_permutation,
)
from symlie.errors import ConstraintCapExceeded, IndeterminateRank, MatrixSizeCapExceeded
from symlie.indexing import MAX_CONSTRAINT_ENTRIES, pauli_columns, word_digits
from symlie.pauli_orbits import enumerate_invariant_basis
from symlie.permutation_rep import enumerate_elements, qubit_permutation_matrix

ALL_FAMILIES = list(Family)

SWAP = qubit_permutation_matrix((1, 0))


def _words(n):
    """The nonzero Pauli words at n qubits as digit tuples, in index order."""
    return list(map(tuple, word_digits(np.arange(1, 4**n), n).tolist()))


def _element_matrices(spec):
    """Every group element's U_p: a valid but much longer constraint list
    than the generators' matrices."""
    return [qubit_permutation_matrix(p) for p in enumerate_elements(spec).elements]


def _shape(generators, n):
    """The constraint matrix's shape: 2 * 4^n rows per generator, one column
    per nonzero Pauli word."""
    return 2 * 4**n * len(generators), 4**n - 1


class TestCommutantDimension:
    def test_swap_gives_symmetric_two_qubit_dimension(self):
        report = commutant_dimension([SWAP], 2)
        assert report.dimension == 9
        assert report.rank == 6
        assert report.singular_value_gap > 10

    def test_empty_generator_set(self):
        # a 0-row constraint matrix: the block split finds no block and
        # every column empty
        for n in (1, 2, 3):
            report = commutant_dimension([], n)
            assert report.dimension == 4**n - 1
            assert report.constraint_count == 0
            null_report, basis = commutant_nullspace([], n)
            assert null_report == report
            assert (report.rank, report.tolerance) == (0, 0.0)
            assert math.isinf(report.singular_value_gap)
            assert np.array_equal(basis, np.eye(4**n - 1))

    def test_energy_two_qubits_is_five_parameters(self):
        assert commutant_dimension([energy_hamiltonian(2)], 2).dimension == 5

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_agrees_with_combinatorics(self, family, n):
        spec = GroupSpec(family, n)
        report = commutant_dimension(group_constraint_matrices(spec), n)
        assert report.dimension == dim_invariant_algebra(spec)
        assert report.singular_value_gap >= 10

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", (2, 3))
    def test_full_group_debug_mode_agrees(self, family, n):
        # the commutant of every element is the generators' commutant, which
        # is why the oracle constrains against generators only
        spec = GroupSpec(family, n)
        report = commutant_dimension(_element_matrices(spec), n)
        assert report.dimension == dim_invariant_algebra(spec)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_agrees_at_five_qubits(self, family):
        # nominally opt-in territory, but cheap enough to keep in the suite
        spec = GroupSpec(family, 5)
        report = commutant_dimension(group_constraint_matrices(spec), 5)
        assert report.dimension == dim_invariant_algebra(spec)

    def test_report_json_is_strict(self):
        import json
        report = commutant_dimension([], 2)
        text = json.dumps(report.to_json())
        assert json.loads(text)["singular_value_gap"] is None
        finite = commutant_dimension([SWAP], 2)
        assert json.loads(json.dumps(finite.to_json()))["singular_value_gap"] > 10

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_energy_matches_central_binomial(self, n):
        report = commutant_dimension([energy_hamiltonian(n)], n)
        assert report.dimension == dim_energy_preserving(n)

    def test_qubit_cap(self):
        with pytest.raises(MatrixSizeCapExceeded):
            commutant_dimension([np.eye(2**7)], 7)

    def test_order_cap_on_constraint_builder(self):
        # S:13 has 13! elements, but only its generators are built, so the
        # qubit cap is what refuses it
        with pytest.raises(MatrixSizeCapExceeded):
            group_constraint_matrices(GroupSpec(Family.SYMMETRIC, 13))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            commutant_dimension([np.eye(4)], 3)


class TestPauliBasis:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_per_word_matrices_bit_for_bit(self, n):
        # the constraint build reads i*P_w from the column form; every
        # nonzero real and imaginary part must be the Kronecker reference's,
        # bit for bit
        rows, values = pauli_columns(word_digits(np.arange(1, 4**n), n))
        columns = np.zeros((4**n - 1, 2**n, 2**n), dtype=np.complex128)
        columns[np.arange(4**n - 1)[:, None], rows, np.arange(2**n)] = 1j * values
        parts, expected = columns.view(np.float64), reference.pauli_basis(n).view(np.float64)
        assert np.array_equal(parts != 0, expected != 0)
        assert parts[parts != 0].tobytes() == expected[expected != 0].tobytes()

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_kronecker_fold(self, n):
        fold = reference.pauli_basis(n)
        for j, unit in enumerate(np.eye(4**n - 1)):
            assert np.array_equal(coefficients_to_operator(unit, n), fold[j])

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_operator_is_the_per_word_sum(self, n):
        rng = np.random.default_rng(n)
        coeffs = rng.normal(size=4**n - 1) * (rng.random(4**n - 1) < 0.3)
        expected = sum(c * 1j * word_matrix(w)
                       for w, c in zip(_words(n), coeffs) if c != 0.0)
        assert np.allclose(coefficients_to_operator(coeffs, n), expected, atol=1e-13)

    def test_zero_coefficients_give_zero_operator(self):
        assert np.array_equal(coefficients_to_operator(np.zeros(63), 3), np.zeros((8, 8)))

    def test_dense_coefficients_match_the_basis_contraction(self):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=255)
        expected = np.tensordot(coeffs, reference.pauli_basis(4), axes=1)
        assert np.allclose(coefficients_to_operator(coeffs, 4), expected, atol=1e-12)

    @pytest.mark.parametrize("coeffs, n", [
        # word index 4 would alias the identity at N = 1: i*I is not in su(2)
        ([0.0, 0.0, 0.0, 1.0], 1),
        ([1.0], 2),
        (np.zeros(14), 2),
        (np.zeros((3, 5)), 2),
    ])
    def test_refuses_wrong_length(self, coeffs, n):
        with pytest.raises(ValueError):
            coefficients_to_operator(np.array(coeffs), n)


class TestNullspace:
    def test_nullspace_reconstructs_commuting_operators(self):
        report, basis = commutant_nullspace([SWAP], 2)
        assert basis.shape == (report.dimension, 15)
        for row in basis:
            a = coefficients_to_operator(row, 2)
            assert np.linalg.norm(SWAP @ a - a @ SWAP) < 1e-10
            assert np.linalg.norm(a + a.conj().T) < 1e-12

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_energy_nullspace_elements_are_block_diagonal(self, n):
        report, basis = commutant_nullspace([energy_hamiltonian(n)], n)
        order = weight_sort_permutation(n)
        profile = block_profile(n)
        rng = np.random.default_rng(11)
        for _ in range(10):
            coeffs = rng.normal(size=report.dimension) @ basis
            a = coefficients_to_operator(coeffs, n)
            assert is_block_diagonal(a[np.ix_(order, order)], profile, 1e-10)


def _oracle_generators(label):
    if label.startswith("energy:"):
        n = int(label.split(":")[1])
        return [energy_hamiltonian(n)], n, dim_energy_preserving(n)
    spec = parse_group_spec(label)
    return group_constraint_matrices(spec), spec.degree, dimension(spec)


def _assert_blocks_match_the_sorted_copy_split(entries, shape):
    """`_blocks` gathers the same rows, columns and records per block as a
    split of one sorted copy of all records."""
    blocks, empty = _blocks(entries, shape)
    expected, expected_empty = reference.blocks_from_sorted_copy(entries, shape)
    assert [tuple(x.tobytes() for x in b) for b in blocks] == [
        tuple(x.tobytes() for x in b) for b in expected]
    assert np.array_equal(empty, expected_empty)


def _random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def planted_block_matrices(draw):
    """(matrix, planted singular values): blocks of drawn shape and rank with
    nonzero singular values in [1, 2], all-zero rows and columns added, and
    rows and columns shuffled.  A block of rank below its size is dense
    with noise-level singular values; a rank-0 block is all zeros."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(0, 7)),
                           min_size=1, max_size=6))
    zero_rows, empty_cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = np.zeros((sum(r for r, _, _ in shapes) + zero_rows,
                       sum(c for _, c, _ in shapes) + empty_cols))
    planted, r0, c0 = [], 0, 0
    for rows, cols, rank in shapes:
        rank = min(rank, rows, cols)
        u = np.linalg.qr(rng.normal(size=(rows, rows)))[0][:, :rank]
        v = np.linalg.qr(rng.normal(size=(cols, cols)))[0][:, :rank]
        s = rng.uniform(1.0, 2.0, size=rank)
        matrix[r0:r0 + rows, c0:c0 + cols] = (u * s) @ v.T
        planted.extend(s)
        r0, c0 = r0 + rows, c0 + cols
    matrix = matrix[rng.permutation(matrix.shape[0])][:, rng.permutation(matrix.shape[1])]
    return matrix, np.sort(planted)[::-1]


class TestBlockSplit:
    @given(planted_block_matrices())
    @settings(max_examples=150, deadline=None)
    def test_split_matches_one_full_svd(self, case):
        matrix, planted = case
        svals, _, _ = _block_svds(reference.entries_of(matrix), matrix.shape, compute_uv=False)
        full = np.linalg.svd(matrix, compute_uv=False)
        assert svals.shape == full.shape
        assert np.all(svals[:-1] >= svals[1:])
        assert np.all(np.abs(svals - full) <= 1e-12 * full[0])
        assert np.allclose(svals[:planted.size], planted, rtol=1e-12, atol=0)
        rank, tol, _ = _classify_singular_values(svals)
        full_rank, full_tol, _ = _classify_singular_values(full)
        assert rank == full_rank == planted.size
        assert math.isclose(tol, full_tol, rel_tol=1e-12)

    @given(planted_block_matrices())
    @settings(max_examples=50, deadline=None)
    def test_blocks_partition_the_nonzero_pattern(self, case):
        matrix, _ = case
        blocks, empty = _blocks(reference.entries_of(matrix), matrix.shape)
        blocks = list(blocks)
        row_of = np.full(matrix.shape[0], -1)
        col_of = np.full(matrix.shape[1], -1)
        for k, (rows, cols, part) in enumerate(blocks):
            assert np.all(np.diff(rows) > 0) and np.all(np.diff(cols) > 0)
            row_of[rows], col_of[cols] = k, k
            # a block's records are exactly the nonzeros of its submatrix
            assert part.size == np.count_nonzero(matrix[np.ix_(rows, cols)])
            assert np.array_equal(matrix[part["row"], part["col"]], part["value"])
        assert sorted(np.concatenate([c for _, c, _ in blocks] + [empty])) == list(
            range(matrix.shape[1]))
        r, c = np.nonzero(matrix)
        assert np.array_equal(row_of[r], col_of[c])
        assert np.array_equal(np.flatnonzero(row_of < 0),
                              np.flatnonzero(~matrix.any(axis=1)))
        assert np.array_equal(empty, np.flatnonzero(~matrix.any(axis=0)))
        _assert_blocks_match_the_sorted_copy_split(reference.entries_of(matrix), matrix.shape)

    @pytest.mark.parametrize("label", ["D:5", "S:2xE:2", "energy:4"])
    def test_oracle_blocks_match_the_sorted_copy_split(self, label):
        generators, n, _ = _oracle_generators(label)
        entries, shape = _constraint_matrix(generators, n), _shape(generators, n)
        _assert_blocks_match_the_sorted_copy_split(entries, shape)

    @given(planted_block_matrices())
    @example((np.diag([2.0, 1.5, 1.0]), np.array([2.0, 1.5, 1.0])))
    @settings(max_examples=60, deadline=None)
    def test_nullspace_of_planted_blocks(self, case):
        # wide blocks (fewer rows than columns) need every right-singular
        # vector; a full-column-rank draw (the example) has an empty basis
        matrix, planted = case
        n = 1
        while 2 * 4**n < matrix.shape[0] or 4**n - 1 < matrix.shape[1]:
            n += 1
        padded = np.zeros(_shape([np.eye(2**n)], n))
        padded[:matrix.shape[0], :matrix.shape[1]] = matrix
        entries = reference.entries_of(padded)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dense_oracle, "_constraint_matrix", lambda gens, n_qubits: entries)
            report, basis = commutant_nullspace([np.eye(2**n)], n)
        assert basis.shape == (4**n - 1 - planted.size, 4**n - 1) == (report.dimension, 4**n - 1)
        assert np.abs(basis @ basis.T - np.eye(report.dimension)).max(initial=0.0) < 1e-12
        assert np.abs(padded @ basis.T).max(initial=0.0) < 1e-12

    def test_dense_generator_is_one_block_and_one_svd(self):
        u = _random_unitary(8, np.random.default_rng(5))
        entries, shape = _constraint_matrix([u], 3), _shape([u], 3)
        blocks, empty = _blocks(entries, shape)
        blocks = list(blocks)
        assert len(blocks) == 1 and empty.size == 0
        assert blocks[0][0].size == shape[0] and blocks[0][2].size == entries.size
        matrix = reference.scatter(entries, shape)
        assert np.allclose(matrix, reference.constraint_matrix([u], 3), rtol=0, atol=1e-12)
        full = _report_from_svals(np.linalg.svd(matrix, compute_uv=False), 3, shape[0])
        report = commutant_dimension([u], 3)
        assert report == full
        # operators diagonal in U's eigenbasis, less the identity
        assert report.dimension == 7

    @pytest.mark.parametrize("label", ["C:5", "S:5", "D:5", "energy:5"])
    def test_five_qubit_oracle_runs_only_small_svds(self, monkeypatch, label):
        # a silent fallback to one dense SVD would pass a 1023-column matrix
        shapes = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        generators, n, expected = _oracle_generators(label)
        assert commutant_dimension(generators, n).dimension == expected
        assert shapes and max(cols for _, cols in shapes) <= 160

    @pytest.mark.parametrize("label", ["S:3", "C:3", "D:3", "S:4", "C:4", "D:4",
                                       "energy:1", "energy:2", "energy:3", "energy:4"])
    def test_nullspace_is_an_orthonormal_commutant_basis(self, label):
        generators, n, expected = _oracle_generators(label)
        report, basis = commutant_nullspace(generators, n)
        assert report.dimension == expected
        assert basis.shape == (expected, 4**n - 1)
        assert np.abs(basis @ basis.T - np.eye(expected)).max() < 1e-12
        assert np.abs(reference.constraint_matrix(generators, n) @ basis.T).max() < 1e-12
        ops = np.tensordot(basis, reference.pauli_basis(n), axes=1)
        assert np.abs(ops + ops.conj().transpose(0, 2, 1)).max() < 1e-12
        for b in generators:
            assert np.abs(b @ ops - ops @ b).max() < 1e-12


# every named generator set up to 4 qubits, products included
SMALL_SETS = [f"{f}:{n}" for n in range(1, 5) for f in "SACDE"] + [
    "S:2xS:2", "S:2xE:2", "S:3xE:1", "C:2xD:2", "A:3xC:1",
    "energy:1", "energy:2", "energy:3", "energy:4"]


def test_oracle_does_not_import_numpy_ma():
    # np.unique without a return flag imports numpy.ma (NumPy 2.4), about
    # 10 ms of a fresh process; the block split finds distinct indices by a
    # sort instead
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = ("import contextlib, io, sys\n"
              "from symlie import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(['oracle', 'C:4'])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out == "0 False\n"


def _assert_stored_form(entries, shape):
    """Column-then-row order, no repeated position, no stored zero."""
    keys = entries["col"] * shape[0] + entries["row"]
    assert np.all(np.diff(keys) > 0)
    assert np.all(entries["value"] != 0.0)
    assert np.all((0 <= entries["row"]) & (entries["row"] < shape[0]))
    assert np.all((0 <= entries["col"]) & (entries["col"] < shape[1]))


class TestConstraintEntries:
    @pytest.mark.parametrize("label", SMALL_SETS)
    def test_equal_the_dense_reference(self, label):
        generators, n, _ = _oracle_generators(label)
        entries, shape = _constraint_matrix(generators, n), _shape(generators, n)
        expected = reference.constraint_matrix(generators, n)
        _assert_stored_form(entries, shape)
        assert np.array_equal(reference.scatter(entries, shape), expected)
        assert entries.size == np.count_nonzero(expected)

    @pytest.mark.parametrize("n, count", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2)])
    def test_random_dense_generators(self, n, count):
        rng = np.random.default_rng(10 * n + count)
        generators = [rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
                      for _ in range(count)]
        entries, shape = _constraint_matrix(generators, n), _shape(generators, n)
        _assert_stored_form(entries, shape)
        assert np.allclose(reference.scatter(entries, shape),
                           reference.constraint_matrix(generators, n), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("label", ["S:4", "D:4", "S:2xE:2", "energy:4"])
    def test_chunks_of_one_word(self, monkeypatch, label):
        # the chunks' duplicate sums and the chunked union-find must not
        # depend on where the chunks split
        generators, n, _ = _oracle_generators(label)
        whole, report = _constraint_matrix(generators, n), commutant_dimension(generators, n)
        monkeypatch.setattr(dense_oracle, "CHUNK_ENTRIES", 7)
        assert _constraint_matrix(generators, n).tobytes() == whole.tobytes()
        assert commutant_dimension(generators, n) == report

    @pytest.mark.parametrize("label", ["S:4", "D:4", "S:2xE:2", "energy:4"])
    @pytest.mark.parametrize("chunk_entries", [2**9, 2**12, 2**18])
    def test_chunks_hold_a_quarter_of_chunk_entries(self, monkeypatch, label, chunk_entries):
        # each chunk of words holds at most CHUNK_ENTRIES // 4 candidate
        # entries (about 60 bytes each), as many words as fit, and the
        # stored entries do not depend on the split
        generators, n, _ = _oracle_generators(label)
        whole = _constraint_matrix(generators, n)
        per_word = 4 * sum(int(np.count_nonzero(b)) for b in generators)
        chunks = []

        def recording(digits):
            chunks.append(len(digits))
            return pauli_columns(digits)
        monkeypatch.setattr(dense_oracle, "CHUNK_ENTRIES", chunk_entries)
        monkeypatch.setattr(dense_oracle, "pauli_columns", recording)
        assert _constraint_matrix(generators, n).tobytes() == whole.tobytes()
        words = max(1, chunk_entries // 4 // per_word)
        assert sum(chunks) == 4**n - 1
        assert chunks[:-1] == [words] * (len(chunks) - 1) and chunks[-1] <= words

    @pytest.mark.parametrize("label", ["S:6", "S:3xS:3"])
    def test_six_qubit_oracle_stays_small(self, label):
        # the dense build held 535 and 1040 MiB here
        generators, n, expected = _oracle_generators(label)
        tracemalloc.start()
        try:
            report = commutant_dimension(generators, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.dimension == expected
        assert peak < 160 * 2**20


class TestConstraintCap:
    def test_refused_before_allocating(self):
        # two dense generators at N = 6: up to 4 * 4095 * 8192 entries
        generators = [np.ones((64, 64))] * 2
        tracemalloc.start()
        try:
            with pytest.raises(ConstraintCapExceeded, match="exceeds cap 33554432") as exc:
                commutant_dimension(generators, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.entries == 4 * 4095 * 8192
        assert peak < 2**20

    @pytest.mark.parametrize("spec,elements", [
        ("S:6", False), ("A:6", False), ("D:6", False), ("C:6", False),
        ("S:3xS:3", False), ("D:3xD:3", False), ("S:2xS:2xS:2", False),
        ("A:5", True), ("S:2xS:2xE:2", True),
        # refused by the dense build's cap on rows times columns
        ("S:5", True), ("C:6", True), ("S:2xS:2xS:2", True),
    ])
    def test_admitted(self, monkeypatch, spec, elements):
        class Admitted(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Admitted

        spec = parse_group_spec(spec)
        generators = (_element_matrices if elements else group_constraint_matrices)(spec)
        # past the cap check, the build's first chunk of words
        monkeypatch.setattr(dense_oracle, "pauli_columns", refuse)
        with pytest.raises(Admitted):
            _constraint_matrix(generators, spec.degree)

    @pytest.mark.parametrize("spec", ["S:6", "A:6"])
    def test_full_group_refused(self, spec):
        spec = parse_group_spec(spec)
        with pytest.raises(ConstraintCapExceeded):
            _constraint_matrix(_element_matrices(spec), spec.degree)

    def test_cap_sits_between_largest_admitted_and_smallest_refused(self):
        # the bound is 4 * (4^N - 1) * sum(nnz(B)); a qubit permutation has
        # 2^N nonzeros
        assert 4 * 4095 * 4 * 64 == 4_193_280 <= MAX_CONSTRAINT_ENTRIES  # S:3xS:3
        # 32 permutations at N = 6 fit and a 33rd does not; at N = 5, 256 and 257
        assert 4 * 4095 * 32 * 64 <= MAX_CONSTRAINT_ENTRIES < 4 * 4095 * 33 * 64
        assert 4 * 1023 * 256 * 32 <= MAX_CONSTRAINT_ENTRIES < 4 * 1023 * 257 * 32
        # one dense 64x64 generator is refused
        assert 4 * 4095 * 4096 > MAX_CONSTRAINT_ENTRIES
        with pytest.raises(ConstraintCapExceeded):
            _constraint_matrix([np.ones((64, 64))], 6)
        # the stored records stay within the dense cap's 1 GiB
        assert MAX_CONSTRAINT_ENTRIES * dense_oracle.ENTRY.itemsize <= 2**30
        permutation = qubit_permutation_matrix((1, 0, 2, 3, 4, 5))
        with pytest.raises(ConstraintCapExceeded) as exc:
            _constraint_matrix([permutation] * 33, 6)
        assert exc.value.entries == 4 * 4095 * 33 * 64


class TestRankClassification:
    def test_clean_gap(self):
        svals = np.array([10.0, 8.0, 2.0, 1e-12, 1e-13])
        rank, tol, gap = _classify_singular_values(svals)
        assert rank == 3
        assert np.isclose(tol, 1e-7)
        assert gap > 1e10

    def test_borderline_gap_raises_via_report(self):
        svals = np.array([1.0, 1e-8, 5e-9])
        rank, tol, gap = _classify_singular_values(svals)
        assert rank == 1 and gap == 1e8
        # a gap below the factor must surface as IndeterminateRank
        from symlie.dense_oracle import _report_from_svals
        with pytest.raises(IndeterminateRank):
            _report_from_svals(np.array([1.0, 2e-8, 5e-9]), 1, 8)

    def test_zero_matrix(self):
        rank, tol, gap = _classify_singular_values(np.zeros(4))
        assert rank == 0 and tol == 0.0 and math.isinf(gap)


class TestEnergyHamiltonian:
    def test_two_qubits(self):
        assert np.array_equal(np.diag(energy_hamiltonian(2)).real, [0, 1, 1, 2])

    def test_one_qubit(self):
        assert np.array_equal(np.diag(energy_hamiltonian(1)).real, [0, 1])

    def test_three_qubits_lexicographic_weights(self):
        assert np.array_equal(np.diag(energy_hamiltonian(3)).real,
                              [0, 1, 1, 2, 1, 2, 2, 3])

    def test_matches_single_site_sum(self):
        # H = (1/2)(sigma_0 - sigma_3) summed over sites via Kronecker products
        n = 3
        h_site = 0.5 * (np.eye(2) - np.diag([1.0, -1.0]))
        total = np.zeros((8, 8), dtype=complex)
        for q in range(n):
            factors = [h_site if i == q else np.eye(2) for i in range(n)]
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            total += term
        assert np.allclose(energy_hamiltonian(n), total)

    def test_eigenvalue_multiplicities(self):
        for n in (1, 2, 3, 4):
            weights = np.diag(energy_hamiltonian(n)).real.astype(int)
            counts = [int(np.sum(weights == i)) for i in range(n + 1)]
            assert counts == block_profile(n)


class TestBlockStructure:
    def test_profiles(self):
        assert block_profile(2) == [1, 2, 1]
        assert block_profile(1) == [1, 1]
        assert block_profile(4) == [1, 4, 6, 4, 1]
        assert sum(x**2 for x in block_profile(4)) - 1 == 69

    @pytest.mark.parametrize("n", range(1, 7))
    def test_profile_sums_and_squares(self, n):
        profile = block_profile(n)
        assert sum(profile) == 2**n
        assert sum(x**2 for x in profile) - 1 == dim_energy_preserving(n)

    def test_identity_is_block_diagonal(self):
        assert is_block_diagonal(np.eye(4), [1, 2, 1], 1e-12)

    def test_swap_is_block_diagonal(self):
        assert is_block_diagonal(SWAP, [1, 2, 1], 1e-12)

    def test_x_on_first_qubit_is_not(self):
        assert not is_block_diagonal(word_matrix((1, 0)), [1, 2, 1], 1e-12)

    def test_profile_shape_mismatch(self):
        with pytest.raises(ValueError):
            is_block_diagonal(np.eye(4), [1, 2], 1e-12)

    def test_weight_sort_permutation_cap(self):
        # the dense-matrix cap: refused before its 2^N entries exist
        with pytest.raises(MatrixSizeCapExceeded):
            weight_sort_permutation(13)


class TestExponentialMap:
    def test_zero_maps_to_identity(self):
        assert exp_membership_check(np.zeros((4, 4)), [SWAP])

    def test_random_invariant_combinations(self):
        basis = enumerate_invariant_basis(GroupSpec(Family.SYMMETRIC, 2))
        gens = [orbit_generator(m) for m in basis.member_strings()]
        rng = np.random.default_rng(42)
        for _ in range(100):
            coeffs = rng.normal(size=len(gens))
            a = sum(c * g for c, g in zip(coeffs, gens))
            assert exp_membership_check(a, [SWAP], tol=1e-9)

    def test_noncommuting_input_rejected(self):
        a = 1j * word_matrix((1, 0))
        with pytest.raises(ValueError):
            exp_membership_check(a, [SWAP])

    def test_non_skew_input_rejected(self):
        with pytest.raises(ValueError):
            exp_membership_check(np.eye(4), [SWAP])

    def test_determinant_one_for_traceless_skew(self):
        # Jacobi: det(exp(a)) = exp(tr a) = 1
        from symlie.dense_oracle import _expm_skew_hermitian
        rng = np.random.default_rng(3)
        for _ in range(25):
            h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            h = h + h.conj().T
            h -= np.trace(h) * np.eye(8) / 8
            u = _expm_skew_hermitian(1j * h)
            assert abs(np.linalg.det(u) - 1) < 1e-10
            assert np.linalg.norm(u @ u.conj().T - np.eye(8)) < 1e-12
