"""Loss values and the three-way gradient agreement: adjoint (the
package's method), a parameter-shift reference kept here and run gate by
gate, and central finite differences."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_reference import reference_predictions
from gradient_reference import diagonal_tail_observable, reference_loss_gradient
from symlie.variance_lab import gradients, simulator
from symlie.variance_lab.circuits import (
    AnsatzKind,
    build_ansatz,
    default_layer_count,
    probe_slot,
)
from symlie.variance_lab.experiment import ExperimentConfig, generate_dataset
from symlie.variance_lab.gradients import (
    _loss_gradient_from_arrays,
    gradient,
    gradient_finite_difference,
    mse_loss,
    predictions,
)
from symlie.variance_lab.simulator import (
    _N_SLOTS,
    _N_TARGETS,
    Circuit,
    Gate,
    GateKind,
    StateVector,
    Workspace,
    graph_state,
    zero_state,
)

EMPTY_2Q = Circuit(n_qubits=2, gates=(), n_params=0)


def random_graph_dataset(rng, n, size):
    dataset = []
    for _ in range(size):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        dataset.append((graph_state(edges, n), 1.0 if rng.random() < 0.5 else -1.0))
    return dataset


class TestLoss:
    def test_perfect_prediction(self):
        assert mse_loss(EMPTY_2Q, [], [(zero_state(2), 1.0)]) == 0.0

    def test_worst_prediction(self):
        assert mse_loss(EMPTY_2Q, [], [(zero_state(2), -1.0)]) == 4.0

    def test_loss_bounds(self):
        rng = np.random.default_rng(0)
        c = build_ansatz(AnsatzKind.CYCLIC, 4, 2)
        dataset = random_graph_dataset(rng, 4, 10)
        for _ in range(20):
            value = mse_loss(c, rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params),
                             dataset)
            assert 0.0 <= value <= 4.0

    def test_predictions_in_range(self):
        rng = np.random.default_rng(1)
        c = build_ansatz(AnsatzKind.PERMUTATION, 4, 3)
        dataset = random_graph_dataset(rng, 4, 8)
        preds = predictions(c, rng.uniform(-3, 3, c.n_params), dataset)
        assert preds.shape == (8,)
        assert np.all(np.abs(preds) <= 1 + 1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(EMPTY_2Q, [], [])


class TestGradient:
    def test_single_rx_closed_form(self):
        # prediction on |0> after RX(t) is cos(t); with label 0 the loss is
        # cos^2(t) and its derivative -sin(2t)
        circuit = Circuit(1, (Gate(GateKind.RX, (0,), (0,)),), 1)
        dataset = [(zero_state(1), 0.0)]
        for theta in (0.0, 0.3, 1.2, -2.5):
            g = gradient(circuit, [theta], dataset, 0)
            assert abs(g - (-math.sin(2 * theta))) < 1e-12

    def test_stationary_point_is_zero(self):
        # at all-zero parameters the circuit is the identity; labeling basis
        # states with their exact parity makes every residual vanish, so the
        # loss sits at a stationary minimum and both routes must report zero
        c = build_ansatz(AnsatzKind.PERMUTATION, 4, 2)
        dataset = []
        for b in (0, 1, 6, 13):
            amps = np.zeros(16, dtype=complex)
            amps[b] = 1.0
            from symlie.variance_lab.simulator import StateVector
            dataset.append((StateVector(4, amps), float((-1) ** bin(b).count("1"))))
        params = np.zeros(c.n_params)
        for slot in range(c.n_params):
            ps = gradient(c, params, dataset, slot)
            fd = gradient_finite_difference(c, params, dataset, slot)
            assert abs(ps - fd) < 1e-8
            assert abs(ps) < 1e-8

    def test_shared_slot_sums_occurrences(self):
        # one slot driving RX on two qubits equals the sum of two circuits
        # with independent slots evaluated at the same angle
        shared = Circuit(2, (Gate(GateKind.RX, (0,), (0,)),
                             Gate(GateKind.RX, (1,), (0,))), 1)
        split = Circuit(2, (Gate(GateKind.RX, (0,), (0,)),
                            Gate(GateKind.RX, (1,), (1,))), 2)
        dataset = [(graph_state([(0, 1)], 2), 1.0)]
        theta = 0.813
        total = gradient(shared, [theta], dataset, 0)
        partial = gradient(split, [theta, theta], dataset, 0) + \
            gradient(split, [theta, theta], dataset, 1)
        assert abs(total - partial) < 1e-12

    @pytest.mark.parametrize("kind", list(AnsatzKind))
    def test_parameter_shift_matches_finite_difference(self, kind):
        # gradient() (adjoint) against finite differences: 100 random
        # configurations per ansatz at n=4, tolerance 1e-6
        rng = np.random.default_rng(list(AnsatzKind).index(kind))
        n = 4
        c = build_ansatz(kind, n, default_layer_count(kind, n))
        dataset = random_graph_dataset(rng, n, 8)
        worst = 0.0
        for _ in range(100):
            params = rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params)
            slot = int(rng.integers(0, c.n_params))
            ps = gradient(c, params, dataset, slot)
            fd = gradient_finite_difference(c, params, dataset, slot)
            worst = max(worst, abs(ps - fd))
        assert worst <= 1e-6

    def test_invalid_slot(self):
        c = build_ansatz(AnsatzKind.PERMUTATION, 4, 1)
        with pytest.raises(ValueError):
            gradient(c, np.zeros(c.n_params), [(zero_state(4), 1.0)], 99)


def slot_occurrences(circuit, slot):
    """All (gate_index, position) pairs where the slot appears."""
    return tuple((gi, k) for gi, g in enumerate(circuit.gates)
                 for k, s in enumerate(g.slots) if s == slot)


def parameter_shift(circuit, params, dataset, slot):
    """Reference gradient by the parameter-shift rule, with every prediction
    run gate by gate.

    Every parametrized gate is exp(-i*theta/2 * G) with G^2 = 1, so each
    occurrence of the slot contributes (p(+pi/2) - p(-pi/2)) / 2 to the
    prediction's derivative.  The occurrence being shifted is moved to a
    fresh slot, so the other occurrences keep the base angle.
    """
    occurrences = slot_occurrences(circuit, slot)
    amps = np.stack([sv.amplitudes for sv, _ in dataset])
    labels = np.array([label for _, label in dataset])
    base = reference_predictions(circuit, params, amps)
    pred_grad = np.zeros(len(dataset))
    for gi, k in occurrences:
        shifted_circuit, values, index = circuit, list(params), slot
        if len(occurrences) > 1:
            gate = circuit.gates[gi]
            slots = tuple(circuit.n_params if j == k else s
                          for j, s in enumerate(gate.slots))
            gates = list(circuit.gates)
            gates[gi] = Gate(gate.kind, gate.targets, slots)
            shifted_circuit = Circuit(circuit.n_qubits, tuple(gates), circuit.n_params + 1)
            values.append(params[slot])
            index = circuit.n_params
        for sign in (1.0, -1.0):
            shifted = list(values)
            shifted[index] += sign * math.pi / 2
            pred_grad += 0.5 * sign * reference_predictions(shifted_circuit, shifted, amps)
    return float(np.mean(2.0 * (base - labels) * pred_grad))


@st.composite
def shared_slot_problems(draw):
    """A random circuit over every gate kind on n <= 4 qubits with few slots,
    so slots are shared across ZZ runs, ROT3 positions and the first and
    last gate; plus a probe slot, parameters and a small random dataset."""
    n = draw(st.integers(min_value=2, max_value=4))
    pool = draw(st.integers(min_value=1, max_value=3))
    gates = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(list(GateKind)))
        # a ZZ entry is a run of up to three same-slot ZZ gates, fused by
        # the simulator
        repeat = draw(st.integers(min_value=1, max_value=3)) if kind is GateKind.ZZ else 1
        slots = tuple(draw(st.integers(0, pool - 1)) for _ in range(_N_SLOTS[kind]))
        for _ in range(repeat):
            order = draw(st.permutations(range(n)))
            gates.append(Gate(kind, tuple(order[:_N_TARGETS[kind]]), slots))
    if not any(g.slots for g in gates):
        gates.append(Gate(GateKind.RY, (0,), (0,)))
    # renumber densely by first use
    dense = {}
    for g in gates:
        for s in g.slots:
            dense.setdefault(s, len(dense))
    gates = [Gate(g.kind, g.targets, tuple(dense[s] for s in g.slots)) for g in gates]
    circuit = Circuit(n, tuple(gates), len(dense))
    probe = draw(st.integers(0, circuit.n_params - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = rng.uniform(-2 * math.pi, 2 * math.pi, circuit.n_params)
    dataset = []
    for _ in range(3):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        dataset.append((StateVector(n, amps / np.linalg.norm(amps)),
                        float(rng.choice([-1.0, 1.0]))))
    return circuit, params, dataset, probe


def assert_three_way(circuit, params, dataset, slot):
    adjoint = gradient(circuit, params, dataset, slot)
    shift = parameter_shift(circuit, params, dataset, slot)
    fd = gradient_finite_difference(circuit, params, dataset, slot)
    assert abs(adjoint - shift) <= 1e-12 * max(1.0, abs(shift))
    assert abs(adjoint - fd) <= 1e-6


class TestAdjointDifferential:
    @given(shared_slot_problems())
    @settings(max_examples=150, deadline=None)
    def test_random_circuits(self, problem):
        assert_three_way(*problem)

    @pytest.mark.parametrize("k", range(3))
    def test_rot3_positions(self, k):
        # slot 0 sits at position k of the first ROT3 and k+1 (mod 3) of the
        # second, and also drives the fused ZZ run and the first and last gate
        slots = [1, 2]
        slots.insert(k, 0)
        circuit = Circuit(3, (
            Gate(GateKind.RX, (1,), (0,)),
            Gate(GateKind.ROT3, (0,), tuple(slots)),
            Gate(GateKind.ZZ, (0, 1), (0,)),
            Gate(GateKind.ZZ, (1, 2), (0,)),
            Gate(GateKind.CNOT, (2, 0)),
            Gate(GateKind.ROT3, (2,), (slots[2], slots[0], slots[1])),
            Gate(GateKind.RZ, (1,), (1,)),
            Gate(GateKind.CNOT, (0, 2)),
            Gate(GateKind.RY, (2,), (0,)),
        ), 3)
        rng = np.random.default_rng(40 + k)
        dataset = random_graph_dataset(rng, 3, 4)
        params = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
        for slot in range(3):
            assert_three_way(circuit, params, dataset, slot)

    @pytest.mark.parametrize("kind", [AnsatzKind.PERMUTATION, AnsatzKind.STRONGLY_ENTANGLING])
    def test_every_block_position(self, kind):
        # at n = 9 the single-qubit steps span a bottom block (trailing axis
        # 1), a middle block (leading and trailing axes both > 1) and a
        # one-qubit top block; every first-layer slot is checked
        n = 9
        c = build_ansatz(kind, n, 2)
        rng = np.random.default_rng(90 + list(AnsatzKind).index(kind))
        dataset = random_graph_dataset(rng, n, 3)
        params = rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params)
        for slot in range(c.layer_starts[1]):
            assert_three_way(c, params, dataset, slot)


class TestAllSlotSweep:
    @pytest.mark.parametrize("kind", list(AnsatzKind))
    def test_one_sweep_equals_per_slot_gradients(self, kind):
        # a single-slot gradient starts its costate after its last probed
        # step.  For a slot of the circuit's last parametrized step that is
        # where the all-slot sweep starts too, and the two agree bit for
        # bit; an earlier slot folds later layers into its observable,
        # which the all-slot sweep cannot, and agrees to rounding
        n = 4
        c = build_ansatz(kind, n, default_layer_count(kind, n))
        rng = np.random.default_rng(7)
        dataset = random_graph_dataset(rng, n, 6)
        amps = np.stack([sv.amplitudes for sv, _ in dataset])
        labels = np.array([label for _, label in dataset])
        params = rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params)
        swept = _loss_gradient_from_arrays(c, params, amps, labels, range(c.n_params))
        single = np.array([gradient(c, params, dataset, slot) for slot in range(c.n_params)])
        last = sorted(next(s.slots for s in reversed(c.steps) if s.slots))
        assert swept[last].tolist() == single[last].tolist()
        assert np.abs(swept - single).max() <= 1e-12 * np.abs(swept).max()


def all_slot_problem(kind, n=5):
    c = build_ansatz(kind, n, default_layer_count(kind, n))
    rng = np.random.default_rng(11 + list(AnsatzKind).index(kind))
    dataset = random_graph_dataset(rng, n, 4)
    amps = np.stack([sv.amplitudes for sv, _ in dataset])
    labels = np.array([label for _, label in dataset])
    params = rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params)
    return c, dataset, amps, labels, params


def counting_run_batch(monkeypatch):
    """Wrap `gradients._run_batch`; returns the list of its `adjoint` flags."""
    calls = []
    original = gradients._run_batch

    def counted(*args, **kwargs):
        calls.append(kwargs.get("adjoint", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(gradients, "_run_batch", counted)
    return calls


class TestStoredStates:
    @pytest.mark.parametrize("kind", list(AnsatzKind))
    @pytest.mark.parametrize("batches", [0, 1])
    def test_capped_store_matches_uncapped(self, monkeypatch, kind, batches):
        # with room for no stored state psi is swept back from psi_out for
        # every probed step; with room for one, only the first probed step's
        # state is kept and psi is swept down to the second
        c, dataset, amps, labels, params = all_slot_problem(kind)
        slots = range(c.n_params)
        uncapped = _loss_gradient_from_arrays(c, params, amps, labels, slots)
        monkeypatch.setattr(gradients, "MAX_STORED_STATE_BYTES", batches * amps.nbytes)
        capped = _loss_gradient_from_arrays(c, params, amps, labels, slots)
        scale = np.abs(uncapped).max()
        assert np.abs(capped - uncapped).max() <= 1e-12 * scale
        for slot in slots:
            fd = gradient_finite_difference(c, params, dataset, slot)
            assert abs(capped[slot] - fd) <= 1e-6

    @pytest.mark.parametrize("batches, sweeps", [(0, 2), (1, 1)])
    def test_stored_probe_sweeps_only_the_costate(self, monkeypatch, batches, sweeps):
        # default mode: forward to the probed step and on to the end, then
        # one adjoint sweep of mu; with nothing stored psi is swept as well
        c, _, amps, labels, params = all_slot_problem(AnsatzKind.PERMUTATION)
        monkeypatch.setattr(gradients, "MAX_STORED_STATE_BYTES", batches * amps.nbytes)
        calls = counting_run_batch(monkeypatch)
        _loss_gradient_from_arrays(c, params, amps, labels, [probe_slot(c)])
        assert calls.count(True) == sweeps
        assert len(calls) == 3

    def test_uncapped_all_slots_never_sweep_psi(self, monkeypatch):
        # every probed step's state fits: the forward pass makes one call per
        # probed step (and one on to the end), the sweep one adjoint call
        # per stretch between them, for mu alone
        c, _, amps, labels, params = all_slot_problem(AnsatzKind.CYCLIC)
        probed = [k for k, step in enumerate(c.steps) if step.slots]
        calls = counting_run_batch(monkeypatch)
        _loss_gradient_from_arrays(c, params, amps, labels, range(c.n_params))
        tail = 1 if probed[-1] < len(c.steps) - 1 else 0
        assert calls.count(False) == len(probed) + tail
        assert calls.count(True) == len(probed) - 1 + tail


def test_probe_gradient_memory():
    # one probe gradient stores the state at the probed step and sweeps only
    # the costate back: the peak stays near one forward pass plus one batch,
    # not a stacked 2B-row sweep
    n = 10
    c = build_ansatz(AnsatzKind.PERMUTATION, n, default_layer_count(AnsatzKind.PERMUTATION, n))
    amps, labels = generate_dataset(n, ExperimentConfig(qubit_counts=(n,)))
    params = np.random.default_rng(0).uniform(-2 * math.pi, 2 * math.pi, c.n_params)
    slots = [probe_slot(c)]
    _loss_gradient_from_arrays(c, params, amps, labels, slots)  # caches, fused steps
    tracemalloc.start()
    try:
        _loss_gradient_from_arrays(c, params, amps, labels, slots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert amps.shape == (50, 1 << n)
    assert peak <= 5.5 * amps.nbytes


class NoReuse(Workspace):
    """A workspace that hands out a new batch on every take: the gradient
    as it would be with one fresh batch per kernel pass."""

    def give(self, batch):
        pass


class Poisoning(Workspace):
    """A workspace that fills every batch given back with NaN, so a batch
    read after it was given back spoils the gradient."""

    def give(self, batch):
        batch.fill(np.nan)
        super().give(batch)


class TestWorkspace:
    @pytest.mark.parametrize("batches", [None, 0, 1])
    @pytest.mark.parametrize("all_slots", [False, True])
    @pytest.mark.parametrize("kind", [AnsatzKind.CYCLIC, AnsatzKind.STRONGLY_ENTANGLING])
    def test_reused_workspace_changes_no_bit(self, monkeypatch, kind, all_slots, batches):
        # three samples through one workspace, whose given-back batches are
        # poisoned, equal gradients that never reuse a batch, bit for bit: a
        # stored state or swept psi sharing a batch with the costate, or a
        # batch given back twice, would show here.  `batches` caps the stored
        # states at none or one batch (None: unpatched)
        n = 5
        c = build_ansatz(kind, n, default_layer_count(kind, n))
        amps, labels = generate_dataset(n, ExperimentConfig(qubit_counts=(n,), dataset_size=6))
        slots = range(c.n_params) if all_slots else [probe_slot(c)]
        if batches is not None:
            monkeypatch.setattr(gradients, "MAX_STORED_STATE_BYTES", batches * amps.nbytes)
        original = amps.copy()
        rng = np.random.default_rng(23)
        workspace = Poisoning()
        for _ in range(3):
            params = rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params)
            reused = _loss_gradient_from_arrays(c, params, amps, labels, slots, workspace)
            fresh = _loss_gradient_from_arrays(c, params, amps, labels, slots, NoReuse())
            assert np.array_equal(reused, fresh)
            assert np.array_equal(amps, original)
            assert len({id(b) for b in workspace.free}) == len(workspace.free)
            assert not any(np.shares_memory(b, amps) for b in workspace.free)

    def test_warm_workspace_allocates_no_batch(self):
        # once a workspace has served one gradient, the next allocates only
        # small arrays (4 batches without a workspace), and the workspace
        # holds the stored state, psi, mu and one batch in flight
        n = 10
        kind = AnsatzKind.STRONGLY_ENTANGLING
        c = build_ansatz(kind, n, default_layer_count(kind, n))
        amps, labels = generate_dataset(n, ExperimentConfig(qubit_counts=(n,)))
        rng = np.random.default_rng(5)
        slots = [probe_slot(c)]
        workspace = Workspace()
        _loss_gradient_from_arrays(c, rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params),
                                   amps, labels, slots, workspace)
        params = rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params)
        tracemalloc.start()
        try:
            _loss_gradient_from_arrays(c, params, amps, labels, slots, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * amps.nbytes
        assert len(workspace.free) <= 5

    def test_warm_single_qubit_blocks_allocate_no_batch(self):
        # at n = 9 the top Kronecker block holds qubit 0 alone; it is one
        # 2x2 matmul written straight into a workspace batch, like every
        # other block, so a warm gradient allocates only its small matrices
        # and vectors: well under 64 KiB against a 1.6 MB batch of 200 rows,
        # and the workspace holds only its four full batches.
        # Strongly-entangling: a cyclic probe's overlap matrices, rows x
        # 16 x 16, are themselves half a batch at n = 9.
        n = 9
        kind = AnsatzKind.STRONGLY_ENTANGLING
        c = build_ansatz(kind, n, default_layer_count(kind, n))
        assert any(len(gated) == 1 for step in c.steps if step.kind == "1q"
                   for _, _, gated in step.blocks)
        amps, labels = generate_dataset(n, ExperimentConfig(qubit_counts=(n,), dataset_size=200))
        rng = np.random.default_rng(9)
        slots = [probe_slot(c)]
        workspace = Workspace()
        _loss_gradient_from_arrays(c, rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params),
                                   amps, labels, slots, workspace)
        params = rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params)
        tracemalloc.start()
        try:
            warm = _loss_gradient_from_arrays(c, params, amps, labels, slots, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
        assert len(workspace.free) == 4
        fresh = _loss_gradient_from_arrays(c, params, amps, labels, slots, NoReuse())
        assert np.array_equal(warm.view(np.int64), fresh.view(np.int64))


def row_chunk_problem(kind, n, dataset_size=50, seed=0):
    """The ansatz at its default depth, a dataset of `dataset_size` graph
    states and a parameter stream."""
    c = build_ansatz(kind, n, default_layer_count(kind, n))
    amps, labels = generate_dataset(n, ExperimentConfig(qubit_counts=(n,),
                                                        dataset_size=dataset_size))
    return c, amps, labels, np.random.default_rng([seed, n, list(AnsatzKind).index(kind)])


def force_row_chunks(monkeypatch, n, rows):
    """Patch the gradient's row chunks to `rows` rows of 2^n amplitudes,
    a quarter of the patched CHUNK_ENTRIES (`gradients._chunk_rows`)."""
    monkeypatch.setattr(gradients, "CHUNK_ENTRIES", rows << (n + 2))
    assert gradients._chunk_rows(n, rows) == rows


class TestRowChunks:
    @pytest.mark.parametrize("all_slots", [False, True])
    @pytest.mark.parametrize("kind", list(AnsatzKind))
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 13, 14])
    def test_row_chunks_change_no_bit(self, monkeypatch, n, kind, all_slots):
        # a row's prediction and prediction gradient depend on no other row:
        # the default row chunks (all 50 rows up to n = 8; 8 + 2 of 10 rows
        # at n = 13, 4 + 4 + 2 at 14), 16 rows, two or one at a time give
        # the same gradients bit for bit (the permutation ansatz on the
        # statevector).  From n = 13 on NumPy sums a one-row batch's
        # prediction in another order than a batch of more rows.  No 16-row
        # chunk there: its batch would store fewer all-slot states than the
        # default's, and a state swept back differs in its last bits
        size = 50 if n < 13 else 10
        c, amps, labels, rng = row_chunk_problem(kind, n, dataset_size=size)
        slots = range(c.n_params) if all_slots else [probe_slot(c)]
        params = rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params)
        default = _loss_gradient_from_arrays(c, params, amps, labels, slots)
        for rows in (16, 2, 1) if n < 13 else (2, 1):
            force_row_chunks(monkeypatch, n, rows)
            split = _loss_gradient_from_arrays(c, params, amps, labels, slots)
            assert np.array_equal(split.view(np.int64), default.view(np.int64)), rows

    @pytest.mark.parametrize("batches", [None, 0, 1])
    @pytest.mark.parametrize("all_slots", [False, True])
    @pytest.mark.parametrize("kind", [AnsatzKind.CYCLIC, AnsatzKind.STRONGLY_ENTANGLING])
    def test_reused_workspace_over_row_chunks(self, monkeypatch, kind, all_slots, batches):
        # three samples of 50 rows in chunks of 16 + 16 + 16 + 2 through one
        # poisoned workspace: the short chunk's batches are leading rows of
        # the others', and the gradients equal both a workspace that never
        # reuses a batch and the unsplit run that stores the same states.
        # `batches` caps the stored states at none or one row chunk's batch
        # (None: unpatched)
        n = 6
        c, amps, labels, rng = row_chunk_problem(kind, n, seed=1)
        slots = range(c.n_params) if all_slots else [probe_slot(c)]
        chunk_bytes = 16 * amps.itemsize << n
        original = amps.copy()
        workspace = Poisoning()
        for _ in range(3):
            params = rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params)
            if batches is not None:
                monkeypatch.setattr(gradients, "MAX_STORED_STATE_BYTES", batches * amps.nbytes)
            unsplit = _loss_gradient_from_arrays(c, params, amps, labels, slots)
            force_row_chunks(monkeypatch, n, 16)
            if batches is not None:
                monkeypatch.setattr(gradients, "MAX_STORED_STATE_BYTES", batches * chunk_bytes)
            reused = _loss_gradient_from_arrays(c, params, amps, labels, slots, workspace)
            fresh = _loss_gradient_from_arrays(c, params, amps, labels, slots, NoReuse())
            monkeypatch.undo()
            assert np.array_equal(reused, fresh)
            assert np.array_equal(reused, unsplit)
            assert np.array_equal(amps, original)
            free = workspace.free
            assert all(b.base is None and b.shape == (16, 1 << n) for b in free)
            assert len({id(b) for b in free}) == len(free)
            assert not any(np.shares_memory(b, amps) for b in free)

    def test_row_chunk_memory(self, monkeypatch):
        # 50 rows at n = 10 in row chunks of 8 rows (128 KiB each, the last
        # of 2 rows): a cold gradient peaks at a few row-chunk batches, where
        # one sweep of the whole dataset holds four dataset batches (3.2 MB);
        # a warm one allocates no batch, and the workspace keeps the sweep's
        # four batches, which together hold at most CHUNK_ENTRIES amplitudes
        n = 10
        kind = AnsatzKind.STRONGLY_ENTANGLING
        c, amps, labels, rng = row_chunk_problem(kind, n, seed=2)
        slots = [probe_slot(c)]
        force_row_chunks(monkeypatch, n, 8)
        chunk_bytes = 8 * amps.itemsize << n
        # fused steps and cached tables first
        _loss_gradient_from_arrays(c, rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params),
                                   amps, labels, slots)
        workspace = Workspace()
        peaks = []
        for _ in range(2):
            params = rng.uniform(-2 * math.pi, 2 * math.pi, c.n_params)
            tracemalloc.start()
            try:
                _loss_gradient_from_arrays(c, params, amps, labels, slots, workspace)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        cold, warm = peaks
        assert cold <= 5 * chunk_bytes < amps.nbytes
        assert warm < 0.5 * chunk_bytes
        assert len(workspace.free) <= 4
        assert sum(b.size for b in workspace.free) <= gradients.CHUNK_ENTRIES


TAIL_RUNS = {
    "empty": (),
    "cnot": (GateKind.CNOT,),
    "zz": (GateKind.ZZ,),
    "mixed": (GateKind.CNOT, GateKind.ZZ, GateKind.CNOT, GateKind.ZZ),
}
ROTATIONS = (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.ROT3)


def tail_problem(rng, n, tail):
    """Three random layers (a rotation on every qubit, then n random
    two-qubit gates), a last single-qubit layer of one or two
    rotations on each of 1..n-1 qubits, and runs of the `tail` kinds, each
    of 1..3 gates; a ZZ gate takes a fresh slot.  Returns the circuit, the
    body's and the last layer's slots, and parameters, states and labels."""
    gates, slot = [], 0

    def add(kind, targets):
        nonlocal slot
        k = _N_SLOTS[kind]
        gates.append(Gate(kind, targets, tuple(range(slot, slot + k))))
        slot += k

    def pair():
        return tuple(int(q) for q in rng.permutation(n)[:2])

    def pick(kinds):
        return kinds[int(rng.integers(len(kinds)))]

    for _ in range(3):
        for q in range(n):
            add(pick(ROTATIONS), (q,))
        for _ in range(n):
            add(pick((GateKind.CNOT, GateKind.ZZ)), pair())
    body = list(range(slot))
    gated = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
    for q in sorted(int(q) for q in gated):
        for _ in range(int(rng.integers(1, 3))):
            add(pick(ROTATIONS), (q,))
    last = list(range(body[-1] + 1, slot))
    for kind in TAIL_RUNS[tail]:
        for _ in range(int(rng.integers(1, 4))):
            add(kind, pair())
    circuit = Circuit(n, tuple(gates), slot)
    params = rng.uniform(-2 * math.pi, 2 * math.pi, slot)
    amps = rng.normal(size=(4, 1 << n)) + 1j * rng.normal(size=(4, 1 << n))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    labels = rng.choice([-1.0, 1.0], size=4)
    return circuit, body, last, params, amps, labels


class TestTrimmedTail:
    @pytest.mark.parametrize("batches", [None, 0, 1])
    @pytest.mark.parametrize("probe", ["body", "last layer", "all slots"])
    @pytest.mark.parametrize("tail", list(TAIL_RUNS))
    def test_matches_full_sweep_reference(self, monkeypatch, tail, probe, batches):
        # the costate starts at the boundary before the unprobed tail; the
        # reference starts it at the circuit's output.  With `batches` the
        # stored-state cap holds none or one batch (None: unpatched)
        rng = np.random.default_rng([list(TAIL_RUNS).index(tail), len(probe)])
        for n in range(2, 9):
            for _ in range(2):
                c, body, last, params, amps, labels = tail_problem(rng, n, tail)
                slots = {"body": [int(rng.choice(body))], "last layer": [int(rng.choice(last))],
                         "all slots": range(c.n_params)}[probe]
                reference = reference_loss_gradient(c, params, amps, labels, slots)
                if batches is not None:
                    monkeypatch.setattr(gradients, "MAX_STORED_STATE_BYTES",
                                        batches * amps.nbytes)
                trimmed = _loss_gradient_from_arrays(c, params, amps, labels, slots)
                monkeypatch.undo()
                # a last-layer slot outside the parity's Z-string, or a
                # last RZ, has a zero gradient that both compute as rounding
                scale = max(np.abs(reference).max(), 1e-3)
                assert np.abs(trimmed - reference).max() <= 1e-12 * scale

    @pytest.mark.parametrize("tail", list(TAIL_RUNS))
    def test_blocks_equal_the_diagonal_sweep(self, tail):
        # the parity's image as per-qubit Kronecker blocks changes no bit
        # against the +-1 diagonal swept through the CNOT runs' gathers,
        # with and without an absorbed single-qubit step
        rng = np.random.default_rng([7, list(TAIL_RUNS).index(tail)])
        forms = {"diagonal": 0, "blocks": 0}
        for n in range(2, 9):
            for _ in range(3):
                c, _, _, params, amps, _ = tail_problem(rng, n, tail)
                for stop in range(len(c.steps) + 1):
                    boundary, blocks = gradients._tail_observable(c, params, stop)
                    reference_boundary, reference = diagonal_tail_observable(c, params, stop)
                    assert boundary == reference_boundary
                    got = gradients._apply_local(amps, blocks, n, Workspace())
                    if isinstance(reference, np.ndarray):
                        forms["diagonal"] += 1
                        want = amps * reference
                    else:
                        forms["blocks"] += 1
                        want = gradients._apply_local(amps, reference, n, Workspace())
                    assert np.array_equal(got, want)
        assert min(forms.values()) > 0

    def test_strongly_entangling_gradient_skips_its_last_layer(self, monkeypatch):
        # two layers, probe in step 0: the forward pass runs the first
        # rotation layer and CNOT ring, the product operator is one more
        # local pass, and the sweep back undoes the first ring; the full
        # sweep makes 3 local passes and 4 gathers
        n = 6
        c = build_ansatz(AnsatzKind.STRONGLY_ENTANGLING, n, 2)
        dataset = random_graph_dataset(np.random.default_rng(6), n, 4)
        amps = np.stack([sv.amplitudes for sv, _ in dataset])
        labels = np.array([label for _, label in dataset])
        params = np.random.default_rng(7).uniform(-2 * math.pi, 2 * math.pi, c.n_params)
        passes = {"1q": 0, GateKind.CNOT: 0}
        apply_step, apply_local = simulator._apply_step, gradients._apply_local

        def counted_step(amps, step, *args, **kwargs):
            passes[step.kind] += 1
            return apply_step(amps, step, *args, **kwargs)

        def counted_local(*args):
            passes["1q"] += 1
            return apply_local(*args)

        monkeypatch.setattr(simulator, "_apply_step", counted_step)
        monkeypatch.setattr(gradients, "_apply_local", counted_local)
        _loss_gradient_from_arrays(c, params, amps, labels, [probe_slot(c)])
        assert passes == {"1q": 2, GateKind.CNOT: 2}
