"""Gate semantics, graph states, and the parity observable."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_reference import apply_cz_reference, apply_gate_reference, gate_by_gate
from symlie.variance_lab.circuits import AnsatzKind, build_ansatz
from symlie.variance_lab.simulator import (
    _N_SLOTS,
    _N_TARGETS,
    BLOCK_QUBITS,
    Circuit,
    Gate,
    GateKind,
    StateVector,
    Workspace,
    _run_batch,
    _step_operator,
    _wire_matrix,
    apply_gate,
    circuit_unitary,
    expectation_parity,
    graph_state,
    run_circuit,
    zero_state,
)


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


@st.composite
def normalized_two_qubit_state(draw):
    parts = draw(st.lists(st.floats(-1, 1), min_size=8, max_size=8))
    amps = np.array(parts[:4]) + 1j * np.array(parts[4:])
    norm = np.linalg.norm(amps)
    if norm < 1e-3:
        amps = np.array([1.0, 0, 0, 0], dtype=complex)
        norm = 1.0
    return StateVector(2, amps / norm)


class TestGateValidation:
    def test_duplicate_targets(self):
        with pytest.raises(ValueError):
            Gate(GateKind.ZZ, (1, 1), (0,))

    def test_wrong_target_count(self):
        with pytest.raises(ValueError):
            Gate(GateKind.RX, (0, 1), (0,))

    def test_wrong_slot_count(self):
        with pytest.raises(ValueError):
            Gate(GateKind.ROT3, (0,), (0,))
        with pytest.raises(ValueError):
            Gate(GateKind.CNOT, (0, 1), (0,))

    def test_circuit_requires_dense_slots(self):
        gates = (Gate(GateKind.RX, (0,), (1,)),)
        with pytest.raises(ValueError):
            Circuit(n_qubits=1, gates=gates, n_params=2)

    def test_circuit_target_range(self):
        gates = (Gate(GateKind.RX, (3,), (0,)),)
        with pytest.raises(ValueError):
            Circuit(n_qubits=2, gates=gates, n_params=1)

    def test_apply_gate_target_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(zero_state(2), Gate(GateKind.RX, (3,), (0,)), [0.1])

    def test_string_kinds(self):
        rx = Gate("RX", (0,), (0,))
        cnot = Gate("CNOT", (0, 1))
        assert rx.kind is GateKind.RX and cnot.kind is GateKind.CNOT
        circuit = Circuit(2, (rx, cnot), 1)
        out = run_circuit(circuit, [math.pi])
        assert np.allclose(out.amplitudes, [0, 0, 0, -1j], atol=1e-12)

    def test_unknown_kind(self):
        # no ansatz uses CZ or H, so neither is a gate kind
        for kind, targets, slots in (("RW", (0,), (0,)), ("CZ", (0, 1), ()), ("H", (0,), ())):
            with pytest.raises(ValueError, match="GateKind"):
                Gate(kind, targets, slots)

    @pytest.mark.parametrize("kind, targets, slots, message", [
        (GateKind.ZZ, (1, 1), (0,), "targets must be distinct: \\(1, 1\\)"),
        ("ZZ", (2, 2), (0,), "targets must be distinct"),
        (GateKind.CNOT, (0, 1, 0), (), "targets must be distinct"),
        (GateKind.RX, (0, 1), (0,), "RX takes 1 targets"),
        (GateKind.ZZ, (0, 1, 2), (0,), "ZZ takes 2 targets"),
        (GateKind.ROT3, (), (0, 1, 2), "ROT3 takes 1 targets"),
        (GateKind.ROT3, (0,), (0,), "ROT3 carries 3 parameter slots"),
        ("CNOT", (0, 1), (0,), "CNOT carries 0 parameter slots"),
        ("RW", (0, 0), (0,), "'RW' is not a valid GateKind"),
    ])
    def test_bad_gate_messages(self, kind, targets, slots, message):
        # the checks run in order: kind, distinct targets, target count, slots
        with pytest.raises(ValueError, match=message):
            Gate(kind, targets, slots)


class TestSingleGates:
    def test_rx_pi_on_zero(self):
        out = apply_gate(zero_state(1), Gate(GateKind.RX, (0,), (0,)), [math.pi])
        assert np.allclose(out.amplitudes, [0, -1j], atol=1e-12)

    def test_zz_phase_on_computational_state(self):
        theta = 0.7321
        out = apply_gate(zero_state(2), Gate(GateKind.ZZ, (0, 1), (0,)), [theta])
        expected = np.zeros(4, dtype=complex)
        expected[0] = np.exp(-0.5j * theta)
        assert np.allclose(out.amplitudes, expected, atol=1e-14)

    def test_cnot_on_basis_states(self):
        state = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))  # |10>
        out = apply_gate(state, Gate(GateKind.CNOT, (0, 1)))
        assert np.allclose(out.amplitudes, [0, 0, 0, 1])  # |11>

    def test_rot3_is_rz_ry_rz(self):
        rng = np.random.default_rng(0)
        angles = rng.uniform(-3, 3, 3)
        state = random_state(rng, 1)
        rot = apply_gate(state, Gate(GateKind.ROT3, (0,), (0, 1, 2)), angles)
        step = apply_gate(state, Gate(GateKind.RZ, (0,), (0,)), [angles[0]])
        step = apply_gate(step, Gate(GateKind.RY, (0,), (0,)), [angles[1]])
        step = apply_gate(step, Gate(GateKind.RZ, (0,), (0,)), [angles[2]])
        assert np.allclose(rot.amplitudes, step.amplitudes, atol=1e-14)

    @given(normalized_two_qubit_state(), st.floats(-6.3, 6.3))
    @settings(max_examples=60, deadline=None)
    def test_zz_equals_cnot_rz_cnot(self, state, theta):
        direct = apply_gate(state, Gate(GateKind.ZZ, (0, 1), (0,)), [theta])
        via = apply_gate(state, Gate(GateKind.CNOT, (0, 1)))
        via = apply_gate(via, Gate(GateKind.RZ, (1,), (0,)), [theta])
        via = apply_gate(via, Gate(GateKind.CNOT, (0, 1)))
        assert np.allclose(direct.amplitudes, via.amplitudes, atol=1e-12)

    @given(normalized_two_qubit_state(),
           st.sampled_from(list(GateKind)),
           st.floats(-6.3, 6.3))
    @settings(max_examples=100, deadline=None)
    def test_norm_preserved_by_every_gate(self, state, kind, theta):
        targets = (0, 1)[:_N_TARGETS[kind]]
        n_slots = _N_SLOTS[kind]
        gate = Gate(kind, targets, tuple(range(n_slots)))
        out = apply_gate(state, gate, [theta] * n_slots)
        assert abs(out.norm() - 1.0) < 1e-10
        assert -1.0 - 1e-12 <= expectation_parity(out) <= 1.0 + 1e-12

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_one_gate_circuit_matches_the_reference(self, kind):
        # apply_gate reads the angles by slot id and runs the gate as a
        # one-gate circuit; slots need not be dense, and a ROT3 may repeat one
        rng = np.random.default_rng(list(GateKind).index(kind))
        for n in range(_N_TARGETS[kind], 8):
            for _ in range(5):
                targets = tuple(int(q) for q in rng.permutation(n)[:_N_TARGETS[kind]])
                slots = tuple(int(s) for s in rng.integers(0, 4, _N_SLOTS[kind]))
                params = rng.uniform(-2 * math.pi, 2 * math.pi, 4)
                gate, state = Gate(kind, targets, slots), random_state(rng, n)
                out = apply_gate(state, gate, params)
                want = apply_gate_reference(state.amplitudes, gate, [params[s] for s in slots], n)
                assert np.max(np.abs(out.amplitudes - want)) <= 1e-14


class TestGraphStates:
    def test_empty_graph_is_plus(self):
        sv = graph_state([], 2)
        assert np.allclose(sv.amplitudes, [0.5] * 4)

    def test_single_edge(self):
        sv = graph_state([(0, 1)], 2)
        assert np.allclose(sv.amplitudes, [0.5, 0.5, 0.5, -0.5])

    def test_triangle_signs(self):
        sv = graph_state([(0, 1), (0, 2), (1, 2)], 3)
        signs = np.sign(sv.amplitudes.real)
        assert np.allclose(signs, [1, 1, 1, -1, 1, -1, -1, -1])
        assert np.allclose(np.abs(sv.amplitudes), 2 ** -1.5)

    def test_amplitude_magnitudes_uniform(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            sv = graph_state(edges, n)
            assert np.allclose(np.abs(sv.amplitudes), 2 ** (-n / 2))
            assert np.allclose(sv.amplitudes.imag, 0)

    def test_one_pass_signs_equal_the_cz_chain(self):
        # graph_state sets all CZ signs in one multiply; the amplitudes must
        # be exactly those of applying the CZ gates one by one to |+>^n
        rng = np.random.default_rng(21)
        for n in range(1, 9):
            for _ in range(10):
                edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < rng.uniform(0.1, 0.9)]
                chain = graph_state((), n).amplitudes
                for edge in edges:
                    chain = apply_cz_reference(chain, edge, n)
                assert np.array_equal(graph_state(edges, n).amplitudes, chain)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            graph_state([(1, 1)], 3)

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            graph_state([(0, 1), (1, 0)], 3)


class TestParityExpectation:
    def test_all_zero_state(self):
        assert expectation_parity(zero_state(3)) == 1.0

    def test_plus_state_is_balanced(self):
        assert abs(expectation_parity(graph_state((), 4))) < 1e-14

    def test_single_edge_graph_state(self):
        assert abs(expectation_parity(graph_state([(0, 1)], 2))) < 1e-14

    def test_parity_of_basis_states(self):
        for b in range(8):
            amps = np.zeros(8, dtype=complex)
            amps[b] = 1.0
            expected = (-1) ** bin(b).count("1")
            assert expectation_parity(StateVector(3, amps)) == expected


class TestCircuitRunner:
    def test_run_matches_gate_by_gate(self):
        rng = np.random.default_rng(4)
        gates = (
            Gate(GateKind.RX, (0,), (0,)),
            Gate(GateKind.ZZ, (0, 1), (1,)),
            Gate(GateKind.CNOT, (1, 2)),
            Gate(GateKind.ROT3, (2,), (2, 3, 4)),
        )
        circuit = Circuit(n_qubits=3, gates=gates, n_params=5)
        params = rng.uniform(-3, 3, 5)
        state = random_state(rng, 3)
        assert np.allclose(run_circuit(circuit, params, state).amplitudes,
                           gate_by_gate(circuit, params, state.amplitudes), atol=1e-13)

    def test_circuit_unitary_is_unitary(self):
        rng = np.random.default_rng(5)
        gates = (
            Gate(GateKind.RX, (0,), (0,)),
            Gate(GateKind.CNOT, (0, 1)),
            Gate(GateKind.RY, (1,), (0,)),
            Gate(GateKind.ZZ, (0, 1), (0,)),
        )
        circuit = Circuit(n_qubits=2, gates=gates, n_params=1)
        u = circuit_unitary(circuit, [0.321])
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
        # column b must equal the circuit applied to basis state b
        basis1 = np.zeros(4, dtype=complex)
        basis1[1] = 1
        out = run_circuit(circuit, [0.321], StateVector(2, basis1))
        assert np.allclose(u[:, 1], out.amplitudes, atol=1e-13)

    def test_wrong_parameter_count(self):
        circuit = Circuit(2, (Gate(GateKind.RX, (0,), (0,)),), 1)
        with pytest.raises(ValueError):
            run_circuit(circuit, [0.1, 0.2])


@st.composite
def fused_circuits(draw):
    """A random circuit over every gate kind on 1..7 qubits (below the block
    size and across block edges), with single-qubit runs that leave some
    qubits of a block ungated and are broken by CNOT and ZZ gates, and
    CNOTs drawn in runs; plus parameters and a batch of two random
    states."""
    n = draw(st.integers(min_value=1, max_value=7))
    kinds = [k for k in GateKind if _N_TARGETS[k] <= n]
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        kind = draw(st.sampled_from(kinds))
        if _N_TARGETS[kind] == 1:
            # a run of rotations on a random subset of the qubits
            qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                   unique=True))
            gates += [Gate(kind, (q,), tuple(range(len(gates) * 3, len(gates) * 3
                                                    + _N_SLOTS[kind])))
                      for q in qubits]
        elif kind is GateKind.CNOT:
            # a run of 1..n gates on random ordered pairs, fused into one
            # gather
            for _ in range(draw(st.integers(min_value=1, max_value=n))):
                gates.append(Gate(kind, tuple(draw(st.permutations(range(n)))[:2])))
        else:
            order = draw(st.permutations(range(n)))
            gates.append(Gate(kind, tuple(order[:2]),
                              tuple(range(len(gates) * 3, len(gates) * 3 + _N_SLOTS[kind]))))
    dense = {}
    for g in gates:
        for slot in g.slots:
            dense.setdefault(slot, len(dense))
    gates = tuple(Gate(g.kind, g.targets, tuple(dense[s] for s in g.slots)) for g in gates)
    circuit = Circuit(n, gates, len(dense))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = rng.uniform(-2 * math.pi, 2 * math.pi, circuit.n_params)
    states = np.stack([random_state(rng, n).amplitudes for _ in range(2)])
    return circuit, params, states


@st.composite
def cnot_runs(draw):
    """A circuit of 1..2n CNOTs on random ordered pairs of 2..10 qubits; a
    run of more than n/2 gates reuses a qubit, as control or as target."""
    n = draw(st.integers(min_value=2, max_value=10))
    orders = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2 * n))
    return Circuit(n, tuple(Gate(GateKind.CNOT, tuple(o[:2])) for o in orders), 0)


class TestFusedSteps:
    def test_step_boundaries(self):
        gates = (
            Gate(GateKind.RX, (0,), (0,)), Gate(GateKind.ROT3, (2,), (1, 2, 3)),
            Gate(GateKind.RZ, (0,), (4,)), Gate(GateKind.ZZ, (0, 1), (0,)),
            Gate(GateKind.ZZ, (1, 2), (4,)), Gate(GateKind.CNOT, (0, 2)),
            Gate(GateKind.CNOT, (1, 2)), Gate(GateKind.RY, (1,), (4,)),
        )
        steps = Circuit(3, gates, 5).steps
        assert [s.kind for s in steps] == ["1q", GateKind.ZZ, GateKind.CNOT, "1q"]
        assert [g.targets for g in steps[2].gates] == [(0, 2), (1, 2)]
        # CNOT(0,2) CNOT(1,2) flips qubit 2 where qubits 0 and 1 differ
        assert steps[2].gather.tolist() == [0, 1, 3, 2, 5, 4, 6, 7]
        assert steps[0].wires == {0: (("X", 0), ("Z", 4)),
                                  2: (("Z", 1), ("Y", 2), ("Z", 3))}
        assert steps[1].phase_groups == ((0, ((0, 1),)), (4, ((1, 2),)))
        assert steps[0].blocks == ((0, 3, (0, 2)),)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_one_cnot_step_per_entangling_ring(self, n):
        layers = 4
        circuit = build_ansatz(AnsatzKind.STRONGLY_ENTANGLING, n, layers)
        rings = [tuple((c, (c + offset) % n) for c in range(n) if (c + offset) % n != c)
                 for offset in (1, 2) * (layers // 2)]
        steps = [tuple(g.targets for g in s.gates) for s in circuit.steps
                 if s.kind is GateKind.CNOT]
        # at n = 2 the offset-2 ring of every second layer is empty
        assert steps == [ring for ring in rings if ring]
        assert len(steps) == (layers if n > 2 else layers // 2)

    @given(cnot_runs())
    @settings(max_examples=100, deadline=None)
    def test_cnot_gather_and_its_inverse(self, circuit):
        (step,) = circuit.steps
        n = circuit.n_qubits
        identity = np.arange(1 << n)
        # gate by gate, the basis labels move as the amplitudes do
        labels = gate_by_gate(circuit, [], identity.astype(np.complex128))
        assert np.array_equal(step.gather, labels.real.astype(np.int64))
        assert np.array_equal(step.gather[step.inverse_gather], identity)
        states = np.stack([random_state(np.random.default_rng(n), n).amplitudes,
                           identity.astype(np.complex128)])
        out = _run_batch(circuit, [], states)
        assert np.array_equal(_run_batch(circuit, [], out, adjoint=True), states)

    def test_blocks_align_at_the_low_end(self):
        layer = tuple(Gate(GateKind.RX, (q,), (0,)) for q in range(2 * BLOCK_QUBITS + 2))
        step = Circuit(len(layer), layer, 1).steps[0]
        assert [(first, width) for first, width, _ in step.blocks] == [
            (BLOCK_QUBITS + 2, BLOCK_QUBITS), (2, BLOCK_QUBITS), (0, 2)]

    @given(fused_circuits())
    @settings(max_examples=200, deadline=None)
    def test_forward_and_adjoint_match_gate_by_gate(self, problem):
        circuit, params, states = problem
        expected = np.stack([gate_by_gate(circuit, params, row) for row in states])
        for row, want in zip(states, expected):
            got = run_circuit(circuit, params, StateVector(circuit.n_qubits, row))
            assert np.max(np.abs(got.amplitudes - want), initial=0.0) <= 1e-12
        out = _run_batch(circuit, params, states)
        assert np.max(np.abs(out - expected)) <= 1e-12
        back = _run_batch(circuit, params, out, adjoint=True)
        assert np.max(np.abs(back - states)) <= 1e-12
        # any split of the step list composes to the whole run
        cut = len(circuit.steps) // 2
        halves = _run_batch(circuit, params, _run_batch(circuit, params, states, stop=cut),
                            start=cut)
        assert np.max(np.abs(halves - expected)) <= 1e-12
        undone = _run_batch(circuit, params, out, start=cut, adjoint=True)
        assert np.max(np.abs(undone - _run_batch(circuit, params, states, stop=cut))) <= 1e-12

    def test_run_batch_leaves_its_input_unchanged(self):
        rng = np.random.default_rng(11)
        n = 5
        gates = (
            Gate(GateKind.ROT3, (0,), (0, 1, 2)), Gate(GateKind.RX, (4,), (3,)),
            Gate(GateKind.ZZ, (1, 3), (3,)), Gate(GateKind.CNOT, (0, 4)),
            Gate(GateKind.RX, (2,), (2,)), Gate(GateKind.RY, (1,), (1,)),
            Gate(GateKind.CNOT, (3, 2)), Gate(GateKind.RZ, (3,), (0,)),
        )
        circuit = Circuit(n, gates, 4)
        params = rng.uniform(-3, 3, 4)
        states = np.stack([random_state(rng, n).amplitudes for _ in range(3)])
        original = states.copy()
        for adjoint in (False, True):
            for start, stop in ((0, None), (2, 5), (3, 3)):
                out = _run_batch(circuit, params, states, start, stop, adjoint=adjoint)
                assert np.array_equal(states, original)
                assert not np.shares_memory(out, states)

    def test_run_batch_with_a_workspace_never_writes_its_input(self):
        # each step writes into a workspace batch and gives back the one it
        # read, but never the caller's input: not the dataset, and not a
        # batch the caller took from the same workspace and still holds
        rng = np.random.default_rng(12)
        n = 6
        circuit = build_ansatz(AnsatzKind.STRONGLY_ENTANGLING, n, 2)
        params = rng.uniform(-3, 3, circuit.n_params)
        states = np.stack([random_state(rng, n).amplitudes for _ in range(3)])
        original = states.copy()
        workspace = Workspace()
        held = _run_batch(circuit, params, states, stop=2, workspace=workspace)
        held_before = held.copy()
        for adjoint in (False, True):
            for start, stop in ((0, None), (1, 3), (2, 2)):
                for source in (states, held):
                    out = _run_batch(circuit, params, source, start, stop, adjoint=adjoint,
                                     workspace=workspace)
                    assert np.array_equal(states, original)
                    assert np.array_equal(held, held_before)
                    assert not np.shares_memory(out, source)
                    assert not any(np.shares_memory(b, states) or np.shares_memory(b, held)
                                   for b in workspace.free)
                    workspace.give(out)
        assert len({id(b) for b in workspace.free}) == len(workspace.free)

    def test_workspace_hands_out_leading_rows(self):
        # a short batch is cut from a free batch with more rows of the same
        # length and goes back whole; an exact shape is preferred, and a
        # batch of another row length is never cut
        workspace = Workspace()
        wide, long = np.empty((4, 8), complex), np.empty((3, 16), complex)
        workspace.give(long)
        workspace.give(wide)
        short = workspace.take((2, 8))
        assert short.base is wide and short.shape == (2, 8) and short.flags.c_contiguous
        assert workspace.free == [long]
        assert workspace.take((4, 8)) is not wide
        workspace.give(short)
        assert workspace.free[-1] is wide
        assert workspace.take((4, 8)) is wide
        assert workspace.take((3, 16)) is long

    @pytest.mark.parametrize("kind", list(AnsatzKind))
    def test_kept_operators_change_no_bit(self, kind):
        # stretches run forward and back at one parameter vector through one
        # dict of kept step operators equal stretches that build their own
        rng = np.random.default_rng(14)
        n = 6
        circuit = build_ansatz(kind, n, 3)
        params = rng.uniform(-3, 3, circuit.n_params)
        states = np.stack([random_state(rng, n).amplitudes for _ in range(4)])
        operators = {}
        for _ in range(2):
            for adjoint in (False, True):
                for start, stop in ((0, None), (1, 4)):
                    kept = _run_batch(circuit, params, states, start, stop, adjoint=adjoint,
                                      operators=operators)
                    built = _run_batch(circuit, params, states, start, stop, adjoint=adjoint)
                    assert np.array_equal(kept, built)
        parametrized = [step for step in circuit.steps if step.kind in ("1q", GateKind.ZZ)]
        assert 0 < len(operators) <= 2 * len(parametrized)

    @pytest.mark.parametrize("kind", list(AnsatzKind))
    def test_step_operators_are_built_once_per_distinct_block(self, kind):
        # wires with the same rotations share one 2x2 matrix, blocks with the
        # same matrices one Kronecker product, and an adjoint's blocks are
        # the forward ones daggered: each bit-equal to the product of its
        # own 2x2 matrices, daggered for the adjoint
        rng = np.random.default_rng(15)
        n = 9  # blocks of 4, 4 and 1 qubits
        circuit = build_ansatz(kind, n, 2)
        params = rng.uniform(-3, 3, circuit.n_params)
        operators = {}
        for step in (s for s in circuit.steps if s.kind == "1q"):
            forward = _step_operator(step, params, False, operators)
            adjoint = _step_operator(step, params, True, operators)
            eye = np.eye(2, dtype=complex)
            for (first, width, k), (_, _, k_adj) in zip(forward, adjoint):
                factors = [_wire_matrix(step.wires[q], params) if q in step.wires else eye
                           for q in range(first, first + width)]
                assert np.array_equal(k, functools.reduce(np.kron, factors))
                assert np.array_equal(k_adj, functools.reduce(
                    np.kron, [f.conj().T for f in factors]))
                assert k_adj.flags.c_contiguous
            patterns = {(width, tuple(step.wires.get(q) for q in range(first, first + width)))
                        for first, width, _ in forward}
            assert len({id(k) for _, _, k in forward}) == len(patterns)
            assert len({id(k) for _, _, k in adjoint}) == len(patterns)

    def test_run_circuit_and_circuit_unitary_return_new_arrays(self):
        rng = np.random.default_rng(13)
        circuit = build_ansatz(AnsatzKind.STRONGLY_ENTANGLING, 3, 2)
        params = rng.uniform(-3, 3, circuit.n_params)
        empty = Circuit(3, (), 0)
        state = random_state(rng, 3)
        before = state.amplitudes.copy()
        for c, p in ((circuit, params), (empty, [])):
            out = run_circuit(c, p, state)
            assert not np.shares_memory(out.amplitudes, state.amplitudes)
            assert np.array_equal(state.amplitudes, before)
            assert not np.shares_memory(circuit_unitary(c, p), circuit_unitary(c, p))
