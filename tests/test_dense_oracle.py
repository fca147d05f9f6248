"""Commutant dimensions, energy Hamiltonian structure, exponential map."""

import math

import numpy as np
import pytest

from symlie.combinatorics import (
    Family,
    GroupSpec,
    dim_energy_preserving,
    dim_invariant_algebra,
)
from symlie.dense_oracle import (
    _classify_singular_values,
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
from symlie.errors import IndeterminateRank, MatrixSizeCapExceeded, OrderCapExceeded
from symlie.pauli_orbits import enumerate_invariant_basis, pauli_matrix, symmetrized_generator
from symlie.permutation_rep import qubit_permutation_matrix

ALL_FAMILIES = list(Family)

SWAP = qubit_permutation_matrix((1, 0))


class TestCommutantDimension:
    def test_swap_gives_symmetric_two_qubit_dimension(self):
        report = commutant_dimension([SWAP], 2)
        assert report.dimension == 9
        assert report.rank == 6
        assert report.singular_value_gap > 10

    def test_empty_generator_set(self):
        for n in (1, 2, 3):
            report = commutant_dimension([], n)
            assert report.dimension == 4**n - 1
            assert report.constraint_count == 0

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
        spec = GroupSpec(family, n)
        generators = group_constraint_matrices(spec, full_group=True)
        report = commutant_dimension(generators, n)
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
        with pytest.raises(OrderCapExceeded):
            group_constraint_matrices(GroupSpec(Family.SYMMETRIC, 13))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            commutant_dimension([np.eye(4)], 3)


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


class TestRankClassification:
    def test_clean_gap(self):
        svals = np.array([10.0, 8.0, 2.0, 1e-12, 1e-13])
        rank, tol, gap = _classify_singular_values(svals, 1e-8)
        assert rank == 3
        assert np.isclose(tol, 1e-7)
        assert gap > 1e10

    def test_borderline_gap_raises_via_report(self):
        svals = np.array([1.0, 1e-8, 5e-9])
        rank, tol, gap = _classify_singular_values(svals, 1e-8)
        assert rank == 1 and gap == 1e8
        # a gap below the factor must surface as IndeterminateRank
        from symlie.dense_oracle import _report_from_svals
        with pytest.raises(IndeterminateRank):
            _report_from_svals(np.array([1.0, 2e-8, 5e-9]), 1, 8, 1e-8, 10.0)

    def test_zero_matrix(self):
        rank, tol, gap = _classify_singular_values(np.zeros(4), 1e-8)
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
        assert not is_block_diagonal(pauli_matrix((1, 0)), [1, 2, 1], 1e-12)

    def test_profile_shape_mismatch(self):
        with pytest.raises(ValueError):
            is_block_diagonal(np.eye(4), [1, 2], 1e-12)

    def test_weight_sort_permutation_cap(self):
        # the same cap as energy_hamiltonian: refused before its 2^N entries exist
        with pytest.raises(MatrixSizeCapExceeded):
            weight_sort_permutation(13)


class TestExponentialMap:
    def test_zero_maps_to_identity(self):
        assert exp_membership_check(np.zeros((4, 4)), [SWAP])

    def test_random_invariant_combinations(self):
        basis = enumerate_invariant_basis(GroupSpec(Family.SYMMETRIC, 2))
        gens = [symmetrized_generator(b) for b in basis]
        rng = np.random.default_rng(42)
        for _ in range(100):
            coeffs = rng.normal(size=len(gens))
            a = sum(c * g for c, g in zip(coeffs, gens))
            assert exp_membership_check(a, [SWAP], tol=1e-9)

    def test_noncommuting_input_rejected(self):
        a = 1j * pauli_matrix((1, 0))
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
