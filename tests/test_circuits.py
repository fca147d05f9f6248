"""Ansatz construction: slot budgets, layer structure, and equivariance."""

import numpy as np
import pytest

from symlie.combinatorics import Family, GroupSpec
from symlie.pauli_orbits import enumerate_invariant_basis
from symlie.permutation_rep import enumerate_elements, qubit_permutation_matrix
from symlie.variance_lab.circuits import (
    AnsatzKind,
    all_pairs,
    build_ansatz,
    default_layer_count,
    gate_count,
    probe_slot,
    ring_pairs,
)
from symlie.variance_lab.simulator import GateKind, circuit_unitary


class TestPairSets:
    def test_all_pairs(self):
        assert all_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_ring_distance_one(self):
        assert ring_pairs(4, 1) == [(0, 1), (1, 2), (2, 3), (0, 3)]

    def test_ring_distance_two_collapses_at_four(self):
        assert ring_pairs(4, 2) == [(0, 2), (1, 3)]

    def test_ring_distance_two_at_six(self):
        assert len(ring_pairs(6, 2)) == 6

    def test_degenerate_ring(self):
        assert ring_pairs(2, 2) == []


class TestSlotBudgets:
    @pytest.mark.parametrize("kind,n,layers,expected", [
        (AnsatzKind.PERMUTATION, 6, 12, 36),
        (AnsatzKind.STRONGLY_ENTANGLING, 6, 2, 36),
        (AnsatzKind.CYCLIC, 6, 9, 36),
    ])
    def test_reference_budgets(self, kind, n, layers, expected):
        assert build_ansatz(kind, n, layers).n_params == expected

    @pytest.mark.parametrize("kind", list(AnsatzKind))
    @pytest.mark.parametrize("n", (4, 6, 8, 10))
    def test_default_layers_hit_target_within_one_layer(self, kind, n):
        layers = default_layer_count(kind, n)
        circuit = build_ansatz(kind, n, layers)
        per_layer = circuit.n_params / layers
        assert abs(circuit.n_params - 6 * n) <= per_layer

    @pytest.mark.parametrize("kind", list(AnsatzKind))
    def test_gate_count_counts_the_built_gates(self, kind):
        for n in range(2, 10):
            for layers in range(1, 8):
                for distance2 in (True, False):
                    circuit = build_ansatz(kind, n, layers, cyclic_distance2=distance2)
                    assert gate_count(kind, n, layers, distance2) == len(circuit.gates)

    def test_layer_metadata(self):
        c = build_ansatz(AnsatzKind.PERMUTATION, 4, 5)
        assert c.layer_starts == (0, 3, 6, 9, 12)
        assert probe_slot(c) == 6  # third of five layers
        c2 = build_ansatz(AnsatzKind.CYCLIC, 4, 4)
        assert c2.layer_starts == (0, 4, 8, 12)
        assert probe_slot(c2) == 4  # second of four layers

    def test_validation(self):
        with pytest.raises(ValueError):
            build_ansatz(AnsatzKind.PERMUTATION, 1, 2)
        with pytest.raises(ValueError):
            build_ansatz(AnsatzKind.PERMUTATION, 4, 0)


class TestLayerStructure:
    def test_permutation_layer_gates(self):
        n = 5
        c = build_ansatz(AnsatzKind.PERMUTATION, n, 1)
        kinds = [g.kind for g in c.gates]
        assert kinds == [GateKind.RX] * n + [GateKind.RY] * n + \
            [GateKind.ZZ] * len(all_pairs(n))
        assert {g.slots[0] for g in c.gates[:n]} == {0}
        assert {g.slots[0] for g in c.gates[n:2 * n]} == {1}
        assert {g.slots[0] for g in c.gates[2 * n:]} == {2}

    def test_cyclic_layer_has_two_zz_rings(self):
        c = build_ansatz(AnsatzKind.CYCLIC, 6, 1)
        zz = [g for g in c.gates if g.kind is GateKind.ZZ]
        assert {g.targets for g in zz if g.slots[0] == 2} == set(ring_pairs(6, 1))
        assert {g.targets for g in zz if g.slots[0] == 3} == set(ring_pairs(6, 2))

    def test_cyclic_without_theta4(self):
        c = build_ansatz(AnsatzKind.CYCLIC, 6, 2, cyclic_distance2=False)
        assert c.n_params == 6
        assert all(g.slots[0] % 3 == 2 for g in c.gates if g.kind is GateKind.ZZ)

    def test_strongly_entangling_alternating_offsets(self):
        n = 6
        c = build_ansatz(AnsatzKind.STRONGLY_ENTANGLING, n, 2)
        cnots = [g.targets for g in c.gates if g.kind is GateKind.CNOT]
        assert cnots[:n] == [(q, (q + 1) % n) for q in range(n)]
        assert cnots[n:] == [(q, (q + 2) % n) for q in range(n)]

    def test_parameters_not_shared_between_layers(self):
        for kind in AnsatzKind:
            c = build_ansatz(kind, 4, 3)
            starts = list(c.layer_starts) + [c.n_params]
            for layer, (lo, hi) in enumerate(zip(starts, starts[1:])):
                layer_gates = [g for g in c.gates
                               if g.slots and lo <= g.slots[0] < hi]
                for g in layer_gates:
                    assert all(lo <= s < hi for s in g.slots)


class TestEquivariance:
    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_permutation_ansatz_commutes_with_symmetric_group(self, n):
        rng = np.random.default_rng(100 + n)
        c = build_ansatz(AnsatzKind.PERMUTATION, n, 2)
        u = circuit_unitary(c, rng.uniform(-5, 5, c.n_params))
        for p in enumerate_elements(GroupSpec(Family.SYMMETRIC, n)).elements:
            ua = qubit_permutation_matrix(p)
            assert np.abs(ua @ u @ ua.conj().T - u).max() < 1e-10

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_cyclic_ansatz_commutes_with_cyclic_group(self, n):
        rng = np.random.default_rng(200 + n)
        c = build_ansatz(AnsatzKind.CYCLIC, n, 2)
        u = circuit_unitary(c, rng.uniform(-5, 5, c.n_params))
        for p in enumerate_elements(GroupSpec(Family.CYCLIC, n)).elements:
            ua = qubit_permutation_matrix(p)
            assert np.abs(ua @ u @ ua.conj().T - u).max() < 1e-10

    def test_strongly_entangling_is_not_permutation_invariant(self):
        rng = np.random.default_rng(7)
        c = build_ansatz(AnsatzKind.STRONGLY_ENTANGLING, 3, 2)
        u = circuit_unitary(c, rng.uniform(-5, 5, c.n_params))
        swap01 = qubit_permutation_matrix((1, 0, 2))
        assert np.abs(swap01 @ u @ swap01.conj().T - u).max() > 1e-3

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_shared_layer_generators_are_invariant_orbits(self, n):
        # each shared slot's gate family must be exactly one orbit of the
        # matching symmetry group, up to the X/Y/ZZ Pauli word involved
        perm_orbits = {m[0]: set(m) for m in
                       enumerate_invariant_basis(GroupSpec(Family.SYMMETRIC, n)).member_strings()}
        cyc_orbits = {m[0]: set(m) for m in
                      enumerate_invariant_basis(GroupSpec(Family.CYCLIC, n)).member_strings()}

        def word(gate):
            digits = [0] * n
            if gate.kind in (GateKind.RX, GateKind.RY):
                digits[gate.targets[0]] = 1 if gate.kind is GateKind.RX else 2
            else:
                for t in gate.targets:
                    digits[t] = 3
            return "".join(map(str, digits))

        for kind, orbits in ((AnsatzKind.PERMUTATION, perm_orbits),
                             (AnsatzKind.CYCLIC, cyc_orbits)):
            c = build_ansatz(kind, n, 1)
            by_slot = {}
            for g in c.gates:
                by_slot.setdefault(g.slots[0], set()).add(word(g))
            for slot_words in by_slot.values():
                rep = min(slot_words)
                assert slot_words == orbits[rep]
