"""Pauli matrices, invariant orbit bases, and symmetrized generators."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pauli_reference import orbit_generator, word_matrix

from symlie.combinatorics import Family, GroupSpec, dim_invariant_algebra
from symlie.indexing import pauli_sum
from symlie.pauli_orbits import enumerate_invariant_basis
from symlie.permutation_rep import enumerate_elements, qubit_permutation_matrix

ALL_FAMILIES = list(Family)

pauli_strings = st.lists(st.integers(0, 3), min_size=1, max_size=5).map(tuple)


def pauli_matrix(word):
    """The package's dense matrix of one word, from `indexing.pauli_columns`."""
    return pauli_sum(np.array([word], dtype=np.uint8), np.ones(1))


class TestPauliMatrix:
    def test_single_identity(self):
        assert np.array_equal(pauli_matrix((0,)), np.eye(2))

    def test_zz(self):
        assert np.array_equal(pauli_matrix((3, 3)), np.diag([1, -1, -1, 1.0]))

    def test_x_on_first_qubit(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, 2:] = np.eye(2)
        expected[2:, :2] = np.eye(2)
        assert np.array_equal(pauli_matrix((1, 0)), expected)

    @given(pauli_strings)
    @settings(max_examples=80, deadline=None)
    def test_matches_kronecker_construction(self, s):
        # dual construction: the index/phase route must equal a plain
        # Kronecker-product fold
        expected = word_matrix(s)
        assert np.array_equal(pauli_matrix(s), expected)

    @given(pauli_strings)
    @settings(max_examples=50, deadline=None)
    def test_algebraic_properties(self, s):
        m = pauli_matrix(s)
        assert np.array_equal(m, m.conj().T)
        assert np.allclose(m @ m, np.eye(1 << len(s)))
        expected_trace = (1 << len(s)) if all(d == 0 for d in s) else 0
        assert np.isclose(np.trace(m).real, expected_trace)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_string_codec_round_trips_every_word(self, n):
        # the trivial group's listing writes every nonzero word once, in
        # index order
        words = list(itertools.product(range(4), repeat=n))[1:]
        basis = enumerate_invariant_basis(GroupSpec(Family.TRIVIAL, n))
        texts = [w for m in basis.member_strings() for w in m]
        assert texts == ["".join(map(str, w)) for w in words]
        assert [tuple(map(int, t)) for t in texts] == words


class TestInvariantBasis:
    def test_symmetric_2(self):
        basis = enumerate_invariant_basis(GroupSpec(Family.SYMMETRIC, 2))
        assert len(basis) == 9
        by_rep = {m[0]: m for m in basis.member_strings()}
        assert by_rep["01"] == ["01", "10"]
        assert by_rep["33"] == ["33"]

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_trivial_is_all_singletons(self, n):
        basis = enumerate_invariant_basis(GroupSpec(Family.TRIVIAL, n))
        assert len(basis) == 4**n - 1
        assert all(len(m) == 1 for m in basis.member_strings())

    def test_cyclic_4_count(self):
        assert len(enumerate_invariant_basis(GroupSpec(Family.CYCLIC, 4))) == 69

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_orbits_partition_the_strings(self, family, n):
        basis = enumerate_invariant_basis(GroupSpec(family, n))
        assert len(basis) == dim_invariant_algebra(GroupSpec(family, n))
        orbits = list(basis.member_strings())
        assert sum(len(m) for m in orbits) == 4**n - 1
        all_members = [w for m in orbits for w in m]
        assert len(set(all_members)) == len(all_members)
        for m in orbits:
            assert m[0] == min(m)
            assert sorted(m) == m

    def test_listing_words_are_member_strings(self):
        # each table row is a member string and the separator
        basis = enumerate_invariant_basis(GroupSpec(Family.DIHEDRAL, 4), separator='", "')
        strings = list(basis.member_strings())
        assert len(strings) == len(basis)
        assert basis.table.shape == (4**4 - 1, 4 + 4)
        assert basis.table.tobytes().decode("ascii") == "".join(
            w + '", "' for m in strings for w in m)
        assert np.array_equal(np.diff(basis.bounds), [len(m) for m in strings])

    @pytest.mark.parametrize("separator", ["", ",", '", "'])
    def test_separator_leaves_the_orbits_unchanged(self, separator):
        spec = GroupSpec(Family.CYCLIC, 5)
        basis = enumerate_invariant_basis(spec, separator=separator)
        assert basis.table.shape == (4**5 - 1, 5 + len(separator))
        assert list(basis.member_strings()) == list(
            enumerate_invariant_basis(spec).member_strings())


class TestSymmetrizedGenerators:
    def test_swap_orbit_generator(self):
        expected = 1j * np.diag([2.0, 0.0, 0.0, -2.0])
        assert np.array_equal(orbit_generator(["03", "30"]), expected)

    def test_singleton_orbit(self):
        assert np.array_equal(orbit_generator(["33"]),
                              1j * np.diag([1.0, -1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_is_the_per_member_dense_sum(self, family, n):
        for members in enumerate_invariant_basis(GroupSpec(family, n)).member_strings():
            expected = 1j * sum(word_matrix(s) for s in members)
            assert np.array_equal(orbit_generator(members), expected)

    def test_matrix_cap(self):
        from symlie.errors import MatrixSizeCapExceeded
        with pytest.raises(MatrixSizeCapExceeded):
            orbit_generator(["0" * 13])

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", (2, 3))
    def test_skew_hermitian_traceless(self, family, n):
        for members in enumerate_invariant_basis(GroupSpec(family, n)).member_strings():
            g = orbit_generator(members)
            assert np.allclose(g, -g.conj().T)
            assert abs(np.trace(g)) < 1e-14

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_linear_independence(self, family, n):
        basis = enumerate_invariant_basis(GroupSpec(family, n))
        mats = [orbit_generator(m) for m in basis.member_strings()]
        vectors = np.stack([np.concatenate([m.real.ravel(), m.imag.ravel()])
                            for m in mats])
        assert np.linalg.matrix_rank(vectors) == len(basis)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(2, 6))
    def test_commutes_with_group(self, family, n):
        spec = GroupSpec(family, n)
        matrices = [qubit_permutation_matrix(p)
                    for p in enumerate_elements(spec).elements]
        for members in enumerate_invariant_basis(spec).member_strings():
            g = orbit_generator(members)
            bound = 1e-12 * np.linalg.norm(g) * (1 << n) ** 0.5
            for u in matrices:
                assert np.linalg.norm(u @ g - g @ u) <= bound

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_bracket_closure_exhaustive(self, family, n):
        # closure under the Lie bracket: re-expanded in the Pauli basis, the
        # commutator of two symmetrized generators must again lie in the
        # symmetrized span, i.e. carry equal coefficients across each orbit
        # and nothing on the identity word
        spec = GroupSpec(family, n)
        basis = list(enumerate_invariant_basis(spec).member_strings())
        if all(len(m) == 1 for m in basis):
            return  # singleton orbits span everything; nothing to constrain
        gens = np.stack([orbit_generator(m) for m in basis])
        strings = ["".join(map(str, w)) for w in itertools.product(range(4), repeat=n)]
        paulis = np.stack([word_matrix(s) for s in strings])
        string_index = {s: i for i, s in enumerate(strings)}
        orbit_columns = [[string_index[w] for w in m] for m in basis]
        dim = 1 << n
        for i in range(len(gens)):
            brackets = gens[i] @ gens - gens @ gens[i]  # all j at once
            # coefficient of P_s in M is Tr(P_s M) / 2^n
            coeffs = np.einsum("sab,jba->js", paulis, brackets) / dim
            assert np.max(np.abs(coeffs[:, 0])) < 1e-10  # identity word
            for cols in orbit_columns:
                orbit_coeffs = coeffs[:, cols]
                spread = np.abs(orbit_coeffs - orbit_coeffs.mean(axis=1, keepdims=True))
                assert float(spread.max()) < 1e-10

    def test_bracket_closure_sampled_n5(self):
        spec = GroupSpec(Family.SYMMETRIC, 5)
        basis = list(enumerate_invariant_basis(spec).member_strings())
        strings = ["".join(map(str, w)) for w in itertools.product(range(4), repeat=5)]
        string_index = {s: i for i, s in enumerate(strings)}
        rng = np.random.default_rng(5)
        for _ in range(15):
            a = orbit_generator(basis[rng.integers(len(basis))])
            b = orbit_generator(basis[rng.integers(len(basis))])
            bracket = a @ b - b @ a
            coeffs = np.array([np.trace(word_matrix(s) @ bracket) / 32
                               for s in strings])
            assert abs(coeffs[0]) < 1e-10
            for orbit in basis:
                orbit_coeffs = coeffs[[string_index[w] for w in orbit]]
                assert np.abs(orbit_coeffs - orbit_coeffs.mean()).max() < 1e-10
