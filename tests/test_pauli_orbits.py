"""Pauli matrices, invariant orbit bases, and symmetrized generators."""

import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlie.combinatorics import Family, GroupSpec, dim_invariant_algebra
from symlie.pauli_orbits import (
    SIGMA,
    OrbitBasisElement,
    enumerate_invariant_basis,
    orbit_from_json,
    orbit_to_json,
    pauli_matrix,
    pauli_string_from_str,
    pauli_string_to_str,
    symmetrized_generator,
)
from symlie.permutation_rep import enumerate_elements, qubit_permutation_matrix

ALL_FAMILIES = list(Family)

pauli_strings = st.lists(st.integers(0, 3), min_size=1, max_size=5).map(tuple)


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
        expected = functools.reduce(np.kron, (SIGMA[d] for d in s))
        assert np.array_equal(pauli_matrix(s), expected)

    @given(pauli_strings)
    @settings(max_examples=50, deadline=None)
    def test_algebraic_properties(self, s):
        m = pauli_matrix(s)
        assert np.array_equal(m, m.conj().T)
        assert np.allclose(m @ m, np.eye(1 << len(s)))
        expected_trace = (1 << len(s)) if all(d == 0 for d in s) else 0
        assert np.isclose(np.trace(m).real, expected_trace)

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            pauli_matrix((0, 4))

    def test_string_codec(self):
        assert pauli_string_from_str("0312") == (0, 3, 1, 2)
        assert pauli_string_to_str((0, 3, 1, 2)) == "0312"
        with pytest.raises(ValueError):
            pauli_string_from_str("07")

    @pytest.mark.parametrize("s", [(0, 7), (4, 1), (), (0, -1)])
    def test_string_encoder_rejects_bad_digits(self, s):
        with pytest.raises(ValueError):
            pauli_string_to_str(s)

    @given(pauli_strings)
    @settings(max_examples=50, deadline=None)
    def test_string_codec_round_trip(self, s):
        assert pauli_string_from_str(pauli_string_to_str(s)) == s

    @pytest.mark.parametrize("n", range(1, 6))
    def test_string_codec_round_trips_every_word(self, n):
        words = list(itertools.product(range(4), repeat=n))
        texts = [pauli_string_to_str(w) for w in words]
        assert texts == ["".join(map(str, w)) for w in words]
        assert [pauli_string_from_str(t) for t in texts] == words


class TestInvariantBasis:
    def test_symmetric_2(self):
        basis = enumerate_invariant_basis(GroupSpec(Family.SYMMETRIC, 2))
        assert len(basis) == 9
        by_rep = {b.representative: b for b in basis}
        assert by_rep[(0, 1)].members == ((0, 1), (1, 0))
        assert by_rep[(3, 3)].members == ((3, 3),)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_trivial_is_all_singletons(self, n):
        basis = enumerate_invariant_basis(GroupSpec(Family.TRIVIAL, n))
        assert len(basis) == 4**n - 1
        assert all(b.weight == 1 for b in basis)

    def test_cyclic_4_count(self):
        assert len(enumerate_invariant_basis(GroupSpec(Family.CYCLIC, 4))) == 69

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_orbits_partition_the_strings(self, family, n):
        basis = enumerate_invariant_basis(GroupSpec(family, n))
        assert len(basis) == dim_invariant_algebra(GroupSpec(family, n))
        assert sum(b.weight for b in basis) == 4**n - 1
        all_members = [m for b in basis for m in b.members]
        assert len(set(all_members)) == len(all_members)
        for b in basis:
            assert b.representative == min(b.members)
            assert sorted(b.members) == list(b.members)

    def test_listing_is_a_sequence_of_elements(self):
        basis = enumerate_invariant_basis(GroupSpec(Family.CYCLIC, 3))
        assert len(basis) == 23
        assert basis[0] == OrbitBasisElement((0, 0, 1), ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
        assert basis[-1] == OrbitBasisElement((3, 3, 3), ((3, 3, 3),))
        assert basis[np.int64(2)] == basis[2 - len(basis)]
        elements = list(basis)
        assert len(elements) == len(basis)
        assert [basis[i] for i in range(len(basis))] == elements
        assert [basis[i] for i in range(-len(basis), 0)] == elements
        for i in (len(basis), -len(basis) - 1):
            with pytest.raises(IndexError):
                basis[i]
        with pytest.raises(TypeError):
            basis[1.0]

    def test_listing_words_are_member_strings(self):
        basis = enumerate_invariant_basis(GroupSpec(Family.DIHEDRAL, 4))
        strings = list(basis.member_strings())
        assert len(strings) == len(basis)
        assert [list(map(pauli_string_from_str, m)) for m in strings] == [
            list(b.members) for b in basis]

    def test_representative_must_be_minimum(self):
        with pytest.raises(ValueError):
            OrbitBasisElement(representative=(1, 0), members=((0, 1), (1, 0)))

    @pytest.mark.parametrize("members", [((0,), (0, 1)), ((0,), (5,))])
    def test_members_must_be_pauli_strings_of_one_length(self, members):
        with pytest.raises(ValueError):
            OrbitBasisElement((0,), members)

    def test_json_reader_refuses_mixed_lengths(self):
        with pytest.raises(ValueError, match="length"):
            orbit_from_json({"representative": "0", "weight": 2, "members": ["0", "01"]})

    def test_json_round_trip(self):
        basis = enumerate_invariant_basis(GroupSpec(Family.CYCLIC, 3))
        for orbit in basis:
            data = json.loads(json.dumps(orbit_to_json(orbit)))
            assert orbit_from_json(data) == orbit
        sample = orbit_to_json(basis[0])
        assert set(sample) == {"representative", "weight", "members"}


class TestSymmetrizedGenerators:
    def test_swap_orbit_generator(self):
        element = OrbitBasisElement((0, 3), ((0, 3), (3, 0)))
        expected = 1j * np.diag([2.0, 0.0, 0.0, -2.0])
        assert np.array_equal(symmetrized_generator(element), expected)

    def test_singleton_orbit(self):
        element = OrbitBasisElement((3, 3), ((3, 3),))
        assert np.array_equal(symmetrized_generator(element),
                              1j * np.diag([1.0, -1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_is_the_per_member_dense_sum(self, family, n):
        for element in enumerate_invariant_basis(GroupSpec(family, n)):
            expected = 1j * sum(pauli_matrix(s) for s in element.members)
            assert np.array_equal(symmetrized_generator(element), expected)

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            symmetrized_generator(OrbitBasisElement((0, 4), ((0, 4),)))

    def test_matrix_cap(self):
        from symlie.errors import MatrixSizeCapExceeded
        element = OrbitBasisElement((0,) * 13, ((0,) * 13,))
        with pytest.raises(MatrixSizeCapExceeded):
            symmetrized_generator(element)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", (2, 3))
    def test_skew_hermitian_traceless(self, family, n):
        for element in enumerate_invariant_basis(GroupSpec(family, n)):
            g = symmetrized_generator(element)
            assert np.allclose(g, -g.conj().T)
            assert abs(np.trace(g)) < 1e-14

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_linear_independence(self, family, n):
        basis = enumerate_invariant_basis(GroupSpec(family, n))
        mats = [symmetrized_generator(b) for b in basis]
        vectors = np.stack([np.concatenate([m.real.ravel(), m.imag.ravel()])
                            for m in mats])
        assert np.linalg.matrix_rank(vectors) == len(basis)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(2, 6))
    def test_commutes_with_group(self, family, n):
        spec = GroupSpec(family, n)
        matrices = [qubit_permutation_matrix(p)
                    for p in enumerate_elements(spec).elements]
        for element in enumerate_invariant_basis(spec):
            g = symmetrized_generator(element)
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
        basis = enumerate_invariant_basis(spec)
        if all(b.weight == 1 for b in basis):
            return  # singleton orbits span everything; nothing to constrain
        gens = np.stack([symmetrized_generator(b) for b in basis])
        strings = list(itertools.product(range(4), repeat=n))
        paulis = np.stack([pauli_matrix(s) for s in strings])
        string_index = {s: i for i, s in enumerate(strings)}
        orbit_columns = [[string_index[m] for m in b.members] for b in basis]
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
        basis = enumerate_invariant_basis(spec)
        strings = list(itertools.product(range(4), repeat=5))
        string_index = {s: i for i, s in enumerate(strings)}
        rng = np.random.default_rng(5)
        for _ in range(15):
            a = symmetrized_generator(basis[rng.integers(len(basis))])
            b = symmetrized_generator(basis[rng.integers(len(basis))])
            bracket = a @ b - b @ a
            coeffs = np.array([np.trace(pauli_matrix(s) @ bracket) / 32
                               for s in strings])
            assert abs(coeffs[0]) < 1e-10
            for orbit in basis:
                orbit_coeffs = coeffs[[string_index[m] for m in orbit.members]]
                assert np.abs(orbit_coeffs - orbit_coeffs.mean()).max() < 1e-10
