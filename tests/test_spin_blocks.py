"""The Schur–Weyl reduction of the permutation experiment: spin-block
densities from the graphs' stabilizer histograms against the amplitude
reference, and gradients on the blocks against the statevector's."""

import math
import tracemalloc

import numpy as np
import pytest
from dataset_reference import cz_graph_state
from hypothesis import example, given, settings
from hypothesis import strategies as st
from spin_reference import spin_densities, spin_states

from symlie import indexing
from symlie.combinatorics import Family, GroupSpec, dim_invariant_algebra
from symlie.indexing import CHUNK_ENTRIES
from symlie.variance_lab import experiment, simulator, spin_blocks
from symlie.variance_lab.circuits import (AnsatzKind, build_ansatz, default_layer_count,
                                          probe_slot)
from symlie.variance_lab.experiment import ExperimentConfig, generate_dataset
from symlie.variance_lab.gradients import _loss_gradient_from_arrays
from symlie.variance_lab.simulator import Circuit, Gate, GateKind, graph_amplitudes
from symlie.variance_lab.spin_blocks import graph_spin_states, loss_gradient_from_blocks


def random_states(n, rows, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))


def edge_masks(n, edge_sets):
    """Neighbour masks (vertex u at bit n - 1 - u) of each edge list."""
    graphs = np.zeros((len(edge_sets), n), dtype=np.int64)
    for row, edges in enumerate(edge_sets):
        for a, b in edges:
            graphs[row, a] |= 1 << (n - 1 - b)
            graphs[row, b] |= 1 << (n - 1 - a)
    return graphs


def complete(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def random_edge_sets(n, rows, seed, p=0.4):
    rng = np.random.default_rng(seed)
    return [[pair for pair in complete(n) if rng.random() < p] for _ in range(rows)]


@st.composite
def graph_blocks(draw, sizes=st.integers(2, 14)):
    """(n, edge lists) of 1-3 graphs on n vertices, each pair an edge or not."""
    n = draw(sizes)
    pairs = complete(n)
    masks = draw(st.lists(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)),
                          min_size=1, max_size=3))
    return n, [[pair for pair, edge in zip(pairs, mask) if edge] for mask in masks]


def extended_reference(graphs, n):
    """The amplitude reference computed in np.clongdouble, as complex128."""
    amps = graph_amplitudes(graphs, n).astype(np.clongdouble)
    return spin_states(amps, n).astype(np.complex128)


def assert_densities_match(got, want):
    # within 1e-13 of the largest entry, and exactly zero outside the blocks
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    n = got.shape[-1] - 1
    for w in range(n // 2 + 1):
        padding = got[:, w].copy()
        padding[:, w:n + 1 - w, w:n + 1 - w] = 0
        assert not padding.any()


def statevector_samples(cfg, n, stop):
    """`_gradient_samples` for the permutation ansatz, on the statevector."""
    circuit = experiment._build_circuit(AnsatzKind.PERMUTATION, n, cfg)
    amps, labels = generate_dataset(n, cfg)
    slots = experiment._probed_slots(circuit, cfg)
    index = list(AnsatzKind).index(AnsatzKind.PERMUTATION)
    return np.array([
        _loss_gradient_from_arrays(
            circuit, experiment._stream(cfg.seed, 1 + index, n, sample).uniform(
                *cfg.parameter_range, circuit.n_params), amps, labels, slots)
        for sample in range(stop)])


class TestDensities:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_traces_hermitian_psd(self, n):
        amps = random_states(n, 4, n)
        densities = spin_densities(amps, n)
        traces = sum(np.trace(rho, axis1=1, axis2=2) for rho in densities)
        norms = np.sum(np.abs(amps) ** 2, axis=1)
        assert np.allclose(traces, norms, rtol=1e-12, atol=0)
        for rho in densities:
            assert np.allclose(rho, rho.conj().swapaxes(1, 2), rtol=0, atol=1e-12 * norms.max())
            assert np.linalg.eigvalsh(rho).min() >= -1e-12 * norms.max()

    @pytest.mark.parametrize("n", range(1, 16))
    def test_block_sizes_count_the_invariant_algebra(self, n):
        # sum_j (2j+1)^2 = C(n+3, 3) = dim(S:n) + 1
        sizes = [rho.shape[-1] for rho in spin_densities(random_states(n, 1, 0), n)]
        assert sizes == [n + 1 - 2 * w for w in range(n // 2 + 1)]
        total = sum(d * d for d in sizes)
        assert total == math.comb(n + 3, 3)
        assert total == dim_invariant_algebra(GroupSpec(Family.SYMMETRIC, n)) + 1

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_product_state_is_a_coherent_spin_state(self, n):
        # |+>^n lies in j = n/2 with amplitude sqrt(C(n, k)) / 2^(n/2) on
        # |j, j-k>, so this pins the basis and its phase convention
        plus = np.full((1, 1 << n), 2.0 ** (-n / 2), dtype=np.complex128)
        densities = spin_densities(plus, n)
        coherent = np.sqrt([math.comb(n, k) for k in range(n + 1)]) / 2 ** (n / 2)
        assert np.allclose(densities[0][0], np.outer(coherent, coherent), atol=1e-14)
        assert all(np.abs(rho).max() < 1e-14 for rho in densities[1:])

    def test_singlet_is_spin_zero(self):
        singlet = np.array([[0, 1, -1, 0]], dtype=np.complex128) / math.sqrt(2)
        top, bottom = spin_densities(singlet, 2)
        assert np.abs(top).max() < 1e-15
        assert np.allclose(bottom, [[[1.0]]], rtol=0, atol=1e-15)

    def test_chunked_reduction_is_bit_identical(self, monkeypatch):
        # graphs are swept about CHUNK_ENTRIES subsets at a time: a block of
        # rows, or a piece of one graph's subsets; each row's arithmetic does
        # not depend on its chunk
        n = 6
        graphs = edge_masks(n, random_edge_sets(n, 7, 3))
        whole = graph_spin_states(graphs, n)
        for entries in (3 << n, 1 << 3, 1):
            monkeypatch.setattr(simulator, "CHUNK_ENTRIES", entries)
            assert np.array_equal(graph_spin_states(graphs, n), whole)
            assert np.array_equal(graph_amplitudes(graphs, n),
                                  [cz_graph_state(edges, n) for edges in random_edge_sets(n, 7, 3)])

    @pytest.mark.parametrize("n", [3, 6, 9])
    @pytest.mark.parametrize("source", ["random", "graph states"])
    def test_states_pad_the_densities(self, n, source):
        # block w = n/2 - j sits at [w:n+1-w, w:n+1-w] of its (n+1)x(n+1)
        # slice, and every other entry is zero
        cfg = ExperimentConfig(qubit_counts=(n,), dataset_size=6)
        if source == "random":
            amps = random_states(n, 3, n)
            states = spin_states(amps, n)
        else:
            graphs, _ = experiment._draw_graphs(n, cfg)
            amps, states = graph_amplitudes(graphs, n), graph_spin_states(graphs, n)
        assert states.shape == (len(amps), n // 2 + 1, n + 1, n + 1)
        for w, rho in enumerate(spin_densities(amps, n)):
            block = slice(w, n + 1 - w)
            if source == "random":
                assert np.array_equal(states[:, w, block, block], rho)
            else:
                assert np.abs(states[:, w, block, block] - rho).max() <= 1e-13
            padding = states[:, w].copy()
            padding[:, block, block] = 0
            assert not padding.any()


class TestGraphSweep:
    """The subset sweep against one CZ sign flip per edge, and the
    stabilizer-histogram densities against the amplitude reduction."""

    @given(graph_blocks())
    @example((2, [[]]))
    @example((9, [complete(9)]))
    @example((14, [[], complete(14)]))
    @settings(max_examples=60, deadline=None)
    def test_amplitudes_equal_the_cz_reference(self, block):
        n, edge_sets = block
        amps = graph_amplitudes(edge_masks(n, edge_sets), n)
        assert np.array_equal(amps, [cz_graph_state(edges, n) for edges in edge_sets])
        for edges, row in zip(edge_sets, amps):
            assert np.array_equal(simulator.graph_state(edges, n).amplitudes, row)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the amplitude reference needs an extended long double")
    @given(graph_blocks())
    @example((2, [[]]))
    @example((7, [complete(7)]))
    @example((13, [[], complete(13)]))
    @example((14, [[], complete(14)]))
    @settings(max_examples=30, deadline=None)
    def test_densities_match_the_amplitude_reference(self, block):
        # in complex128 the reference's Löwdin products are off by up to
        # 3e-12 of the largest entry at odd n >= 11 near the symmetric
        # block; in extended precision it is exact to about 1e-15
        n, edge_sets = block
        graphs = edge_masks(n, edge_sets)
        assert_densities_match(graph_spin_states(graphs, n), extended_reference(graphs, n))

    @pytest.mark.parametrize("n", range(2, 15))
    def test_symmetric_graph_states_are_exact(self, n):
        # the empty and the complete graph have amplitudes that depend only
        # on |S|, so they lie in j = n/2 with psi_w = (-1)^(|E(S)|)
        # sqrt(C(n, w)) / 2^(n/2); their densities are known exactly
        graphs = edge_masks(n, [[], complete(n)])
        for graph, edge_count in zip(graph_spin_states(graphs, n),
                                     (lambda w: 0, lambda w: math.comb(w, 2))):
            psi = np.array([(-1) ** edge_count(w) * math.sqrt(math.comb(n, w))
                            for w in range(n + 1)]) / 2 ** (n / 2)
            want = np.zeros_like(graph)
            want[0] = np.outer(psi, psi)
            assert np.abs(graph - want).max() <= 1e-14

    @given(graph_blocks(st.integers(2, 12)))
    @example((13, [[], complete(13), [(0, 12)]]))
    @settings(max_examples=40, deadline=None)
    def test_block_equals_one_graph_at_a_time(self, block):
        n, edge_sets = block
        graphs = edge_masks(n, edge_sets)
        together = graph_spin_states(graphs, n)
        for row in range(len(graphs)):
            assert np.array_equal(graph_spin_states(graphs[row:row + 1], n), together[row:row + 1])

    @pytest.mark.slow
    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the amplitude reference needs an extended long double")
    def test_densities_match_the_reference_at_16(self):
        n = 16
        graphs = edge_masks(n, random_edge_sets(n, 3, 16) + [[], complete(n)])
        assert_densities_match(graph_spin_states(graphs, n), extended_reference(graphs, n))

    @pytest.mark.parametrize("d", range(9))
    def test_krawtchouk_rows_expand_the_binomials(self, d):
        # row t holds (u + v)^(d-t) (u - v)^t, the coefficient of u^0 first
        for t, row in enumerate(spin_blocks._krawtchouk(d)):
            want = np.convolve([math.comb(d - t, i) for i in range(d - t + 1)],
                               [math.comb(t, i) * (-1) ** (t - i) for i in range(t + 1)])
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
    def test_table_popcount_counts_bits(self, dtype):
        # the sweep's bit count, and the table NumPy < 2 falls back to
        words = np.random.default_rng(1).integers(0, np.iinfo(dtype).max, 1000, endpoint=True)
        words = words.astype(dtype)
        want = [bin(int(word)).count("1") for word in words]
        assert np.array_equal(indexing._popcount_by_table(words), want)
        assert np.array_equal(indexing.popcount(words), want)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_legendre_nodes_integrate_to_their_degree(self, n):
        # n nodes integrate x^k exactly for k < 2n
        nodes = spin_blocks._legendre_nodes(n)
        for k in range(2 * n):
            assert math.isclose(sum(weight * x ** k for x, weight in nodes),
                                (1 + (-1) ** k) / (k + 1), abs_tol=1e-14)


@pytest.mark.parametrize("n", range(1, 13))
def test_spin_axes_diagonalize_the_generators(n):
    # exp(-i theta J_axis) is built from these eigenvectors and eigenvalues
    for axis, (gen, vals, vecs) in spin_blocks._spin_axes(n).items():
        assert np.allclose(vecs @ (vals[:, :, None] * vecs.conj().swapaxes(1, 2)), gen / 2,
                           rtol=0, atol=1e-13 * n), axis
        assert np.allclose(vecs @ vecs.conj().swapaxes(1, 2), np.eye(n + 1), rtol=0, atol=1e-13)


class TestReducedGradients:
    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("mode", ["probe", "all-slots", "layers"])
    def test_matches_statevector(self, n, mode):
        cfg = ExperimentConfig(qubit_counts=(n,), samples_per_point=2,
                               probe_all_slots=mode != "probe",
                               layers=3 if mode == "layers" else None)
        reduced = experiment._gradient_samples(cfg, AnsatzKind.PERMUTATION, n,
                                               *experiment._draw_graphs(n, cfg), 0, 2)
        reference = statevector_samples(cfg, n, 2)
        assert reduced.shape == reference.shape
        assert np.abs(reduced - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_last_zz_slot_vanishes_exactly(self):
        # the circuit ends in ZZ, which commutes with the parity: that
        # slot's gradient is exactly 0 on the statevector, and its variance
        # row prints 0.0 on the blocks too
        n = 6
        cfg = ExperimentConfig(qubit_counts=(n,), samples_per_point=2, probe_all_slots=True)
        reduced = experiment._gradient_samples(cfg, AnsatzKind.PERMUTATION, n,
                                               *experiment._draw_graphs(n, cfg), 0, 2)
        assert not statevector_samples(cfg, n, 2)[:, -1].any()
        assert not reduced[:, -1].any()
        assert reduced[:, :-1].all()

    def test_permutation_points_skip_the_statevector_gradient(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("statevector gradient called")

        monkeypatch.setattr(experiment, "_loss_gradient_from_arrays", refuse)
        cfg = ExperimentConfig(qubit_counts=(4,), samples_per_point=2)
        dataset = experiment._draw_graphs(4, cfg)
        reduced = experiment._gradient_samples(cfg, AnsatzKind.PERMUTATION, 4, *dataset, 0, 2)
        assert reduced.shape == (2, 1)
        with pytest.raises(AssertionError, match="statevector gradient called"):
            experiment._gradient_samples(cfg, AnsatzKind.CYCLIC, 4, *dataset, 0, 2)

    @pytest.mark.parametrize("kind", [AnsatzKind.CYCLIC, AnsatzKind.STRONGLY_ENTANGLING])
    def test_other_ansatzes_refused(self, kind):
        n = 5
        c = build_ansatz(kind, n, 2)
        amps, labels = generate_dataset(n, ExperimentConfig(qubit_counts=(n,), dataset_size=4))
        with pytest.raises(ValueError, match="not S_n-symmetric"):
            loss_gradient_from_blocks(c, np.zeros(c.n_params), spin_states(amps, n), labels, [0])

    @pytest.mark.parametrize("gates", [
        # a rotation missing on one qubit, a rotation that differs on one
        # qubit, ZZ on all but one pair, and a CNOT step
        [Gate(GateKind.RX, (q,), (0,)) for q in range(2)],
        [Gate(GateKind.RX, (0,), (0,)), Gate(GateKind.RY, (1,), (0,)),
         Gate(GateKind.RX, (2,), (0,))],
        [Gate(GateKind.ZZ, (0, 1), (0,)), Gate(GateKind.ZZ, (1, 2), (0,))],
        [Gate(GateKind.RX, (q,), (0,)) for q in range(3)] + [Gate(GateKind.CNOT, (0, 2))],
    ])
    def test_asymmetric_steps_refused(self, gates):
        c = Circuit(3, tuple(gates), 1)
        states = spin_states(random_states(3, 2, 0), 3)
        with pytest.raises(ValueError, match="not S_n-symmetric"):
            loss_gradient_from_blocks(c, [0.3], states, np.ones(2), [0])

    @pytest.mark.parametrize("n_params, slot, message", [
        (7, 0, "expected 6 parameters, got 7"), (5, 0, "expected 6 parameters, got 5"),
        (6, 6, "slot 6 out of range"), (6, -1, "slot -1 out of range")])
    @pytest.mark.parametrize("path", ["statevector", "spin blocks"])
    def test_parameters_and_slots_checked(self, path, n_params, slot, message):
        n = 4
        c = build_ansatz(AnsatzKind.PERMUTATION, n, 2)
        assert c.n_params == 6
        amps, labels = generate_dataset(n, ExperimentConfig(qubit_counts=(n,), dataset_size=4))
        if path == "spin blocks":
            amps, loss_gradient = spin_states(amps, n), loss_gradient_from_blocks
        else:
            loss_gradient = _loss_gradient_from_arrays
        with pytest.raises(ValueError, match=message):
            loss_gradient(c, np.full(n_params, 0.3), amps, labels, [slot])

    @pytest.mark.parametrize("n", [3, 4])
    def test_any_symmetric_circuit(self, n):
        # RZ, a slot used twice on each wire, ZZ pairs in either order and
        # two ZZ slots fused into one step
        gates = []
        for q in range(n):
            gates += [Gate(GateKind.RZ, (q,), (0,)), Gate(GateKind.RX, (q,), (1,)),
                      Gate(GateKind.RY, (q,), (0,))]
        gates += [Gate(GateKind.ZZ, (j, i), (2,)) for i in range(n) for j in range(i + 1, n)]
        gates += [Gate(GateKind.ZZ, (i, j), (3,)) for i in range(n) for j in range(i + 1, n)]
        gates += [Gate(GateKind.RX, (q,), (4,)) for q in range(n)]
        c = Circuit(n, tuple(gates), 5)
        assert [step.kind for step in c.steps] == ["1q", GateKind.ZZ, "1q"]
        amps = random_states(n, 3, n)
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        labels = np.array([1.0, -1.0, 1.0])
        params = [0.7, -1.1, 2.3, 0.4, -0.9]
        reduced = loss_gradient_from_blocks(c, params, spin_states(amps, n), labels, range(5))
        reference = _loss_gradient_from_arrays(c, params, amps, labels, range(5))
        assert np.abs(reduced - reference).max() <= 1e-12 * np.abs(reference).max()


def test_reduction_memory():
    # the graphs are swept a block of about CHUNK_ENTRIES subsets at a
    # time, so the reduction's peak is a few bytes per entry of one block
    # plus a few copies of its (rows, n//2+1, n+1, n+1) output, not the
    # 2^n amplitudes of every graph; a reduced gradient holds at most a few
    # copies of the padded densities
    peaks = {}
    for n in (14, 16):
        graphs, labels = experiment._draw_graphs(n, ExperimentConfig(qubit_counts=(n,)))
        graph_spin_states(graphs, n)  # caches the map and the bit counts
        tracemalloc.start()
        try:
            states = graph_spin_states(graphs, n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4.2 MB + 2.9 MB at n = 14, against 13 MB of amplitudes; 4.2 MB +
        # 4.2 MB at n = 16, against 52 MB
        assert peaks[n] <= 16 * CHUNK_ENTRIES + 2 * states.nbytes
    c = build_ansatz(AnsatzKind.PERMUTATION, n, default_layer_count(AnsatzKind.PERMUTATION, n))
    params = np.random.default_rng(0).uniform(-2 * math.pi, 2 * math.pi, c.n_params)
    loss_gradient_from_blocks(c, params, states, labels, [probe_slot(c)])
    tracemalloc.start()
    try:
        loss_gradient_from_blocks(c, params, states, labels, [probe_slot(c)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * states.nbytes


def test_gradient_memory_does_not_grow_with_rows():
    # the rows enter only through the predictions and the weighted sum
    # sigma, so 150 more rows add a few vectors of their length, not
    # copies of their densities
    n = 8
    c = build_ansatz(AnsatzKind.PERMUTATION, n, default_layer_count(AnsatzKind.PERMUTATION, n))
    params = np.random.default_rng(0).uniform(-2 * math.pi, 2 * math.pi, c.n_params)
    peaks, sizes = [], []
    for rows in (50, 200):
        amps, labels = generate_dataset(n, ExperimentConfig(qubit_counts=(n,), dataset_size=rows))
        states = spin_states(amps, n)
        loss_gradient_from_blocks(c, params, states, labels, [probe_slot(c)])  # caches
        tracemalloc.start()
        try:
            loss_gradient_from_blocks(c, params, states, labels, [probe_slot(c)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(states.nbytes)
    assert peaks[1] - peaks[0] <= 0.05 * (sizes[1] - sizes[0])
