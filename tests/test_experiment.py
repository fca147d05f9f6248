"""Dataset generation, experiment determinism, and output formats."""

import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from dataset_reference import is_connected, random_graph, reference_dataset

from symlie.errors import (DatasetGenerationFailed, GateCapExceeded, GradientMemoryCapExceeded,
                           StateBatchCapExceeded, SubsetCapExceeded, SymlieError)
from symlie.indexing import MAX_CIRCUIT_GATES, MAX_GRAPH_SUBSETS, MAX_STATE_BATCH_BYTES
from symlie import cli
from symlie.variance_lab import (
    AnsatzKind,
    ExperimentConfig,
    generate_dataset,
    run_variance_experiment,
)
from symlie.variance_lab import experiment, gradients
from symlie.variance_lab.experiment import ALL_ANSATZE, VarianceRow, _stream

PERMUTATION_ONLY = (AnsatzKind.PERMUTATION,)


class TestConnectivity:
    def test_path_is_connected(self):
        assert is_connected(4, [(0, 1), (1, 2), (2, 3)])

    def test_missing_vertex_is_disconnected(self):
        assert not is_connected(4, [(0, 1), (1, 2)])

    def test_empty_graph(self):
        assert not is_connected(3, [])
        assert is_connected(1, [])

    def test_cycle_plus_chord(self):
        assert is_connected(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])


def neighbour_masks(n, edges):
    """The neighbour masks of a graph, vertex u at bit n - 1 - u, set edge
    by edge."""
    masks = [0] * n
    for i, j in edges:
        masks[i] |= 1 << (n - 1 - j)
        masks[j] |= 1 << (n - 1 - i)
    return masks


class TestMaskConnectivity:
    # the draw labels its graphs on their neighbour masks; the union-find
    # reads their edge lists

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_small_graph(self, n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs = [[pair for k, pair in enumerate(pairs) if code >> k & 1]
                  for code in range(1 << len(pairs))]
        masks = np.array([neighbour_masks(n, edges) for edges in graphs], dtype=np.int64)
        assert experiment._connected_rows(masks).tolist() == [
            is_connected(n, edges) for edges in graphs]

    @pytest.mark.parametrize("n", range(2, 23))
    def test_random_graphs(self, n):
        rng = _stream(3, 9, n)
        graphs = [random_graph(n, p, rng) for p in (0.05, 0.1, 0.2, 0.4) for _ in range(40)]
        masks = np.array([neighbour_masks(n, edges) for edges in graphs], dtype=np.int64)
        want = [is_connected(n, edges) for edges in graphs]
        assert experiment._connected_rows(masks).tolist() == want
        assert any(want) and not all(want)


class TestRandomGraph:
    def test_edges_are_ordered_pairs(self):
        rng = _stream(0, 0, 5)
        edges = random_graph(5, 0.5, rng)
        assert all(i < j for i, j in edges)
        assert len(set(edges)) == len(edges)

    def test_probability_extremes(self):
        rng = _stream(0, 0, 5)
        assert random_graph(5, 1 - 1e-12, rng) == [(i, j) for i in range(5)
                                                   for j in range(i + 1, 5)]
        assert random_graph(5, 1e-12, rng) == []

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_matches_one_scalar_draw_per_pair(self, seed):
        # the vector draw reads the stream exactly as the per-pair scalar draws do
        fast, slow = _stream(seed, 0, 3), _stream(seed, 0, 3)
        for n in range(2, 15):
            for p in (0.3, 0.5):
                want = [(i, j) for i in range(n) for j in range(i + 1, n)
                        if slow.random() < p]
                assert random_graph(n, p, fast) == want
        assert fast.random() == slow.random()


class TestDatasetGeneration:
    def test_balanced_labels(self):
        cfg = ExperimentConfig(qubit_counts=(4,), dataset_size=20, seed=5)
        states, labels = generate_dataset(4, cfg)
        assert states.shape == (20, 16)
        assert np.sum(labels == 1.0) == 10
        assert np.sum(labels == -1.0) == 10
        assert np.allclose(np.linalg.norm(states, axis=1), 1.0)

    def test_deterministic_for_fixed_seed(self):
        cfg = ExperimentConfig(qubit_counts=(4,), seed=9)
        a_states, a_labels = generate_dataset(4, cfg)
        b_states, b_labels = generate_dataset(4, cfg)
        assert np.array_equal(a_states, b_states)
        assert np.array_equal(a_labels, b_labels)

    def test_peak_is_one_batch(self):
        # each state is written into the preallocated batch: no list of
        # states is kept alive while a stacked copy is made
        n = 12
        cfg = ExperimentConfig(qubit_counts=(n,))
        generate_dataset(n, cfg)  # caches the bit tables
        tracemalloc.start()
        try:
            states, _ = generate_dataset(n, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.shape == (50, 1 << n)
        assert peak <= 1.25 * states.nbytes

    def test_retry_cap_raises(self):
        # p close to 1 starves the disconnected class
        cfg = ExperimentConfig(qubit_counts=(8,), dataset_size=10, seed=1,
                               edge_probability=0.99, dataset_retry_cap=300)
        with pytest.raises(DatasetGenerationFailed):
            generate_dataset(8, cfg)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_matches_graph_by_graph_reference(self, seed):
        # a cap of 2000 draws spans eight blocks and keeps the reference's
        # starved cases (rare connected graphs at p = 0.1, rare disconnected
        # ones at p = 0.9) cheap; those must fail with the same message
        for n in range(2, 15):
            for p in (0.1, 0.4, 0.9):
                cfg = ExperimentConfig(qubit_counts=(n,), seed=seed, edge_probability=p,
                                       dataset_retry_cap=2000)
                try:
                    want_states, want_labels, _ = reference_dataset(n, cfg)
                except DatasetGenerationFailed as refused:
                    with pytest.raises(DatasetGenerationFailed) as info:
                        generate_dataset(n, cfg)
                    assert str(info.value) == str(refused)
                    continue
                states, labels = generate_dataset(n, cfg)
                assert np.array_equal(states, want_states), (n, p)
                assert np.array_equal(labels, want_labels), (n, p)

    @pytest.mark.parametrize("n", [4, 14])
    def test_retry_cap_boundary(self, n):
        # n = 4 needs fewer draws than one block, n = 14 several blocks
        cfg = ExperimentConfig(qubit_counts=(n,), seed=1)
        want_states, want_labels, draws = reference_dataset(n, cfg)
        assert (draws > 256) == (n == 14)
        states, labels = generate_dataset(n, replace(cfg, dataset_retry_cap=draws))
        assert np.array_equal(states, want_states)
        assert np.array_equal(labels, want_labels)
        short = replace(cfg, dataset_retry_cap=draws - 1)
        with pytest.raises(DatasetGenerationFailed) as info:
            generate_dataset(n, short)
        with pytest.raises(DatasetGenerationFailed) as refused:
            reference_dataset(n, short)
        assert str(info.value) == str(refused.value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset_size=7)
        with pytest.raises(ValueError):
            ExperimentConfig(edge_probability=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(samples_per_point=0)
        with pytest.raises(ValueError):
            ExperimentConfig(samples_per_point=1)
        with pytest.raises(ValueError):
            ExperimentConfig(qubit_counts=())
        with pytest.raises(ValueError):
            ExperimentConfig(parameter_range=(1.0, 1.0))
        with pytest.raises(ValueError):
            ExperimentConfig(workers=0)
        with pytest.raises(ValueError, match="layers must be >= 1"):
            ExperimentConfig(layers=0)
        with pytest.raises(ValueError, match="qubit counts must be distinct"):
            ExperimentConfig(qubit_counts=(4, 6, 4))
        # a repeated ansatz would compute and print its rows twice, and none
        # would print no row after drawing every dataset
        with pytest.raises(ValueError, match=r"ansatz kinds .* got \['cyclic', 'cyclic'\]"):
            ExperimentConfig(ansatz_kinds=(AnsatzKind.CYCLIC, AnsatzKind.CYCLIC))
        with pytest.raises(ValueError, match=r"ansatz kinds must be distinct and at least one"):
            ExperimentConfig(ansatz_kinds=())
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ExperimentConfig(seed=-1)
        assert ExperimentConfig(seed=0).seed == 0
        assert ExperimentConfig(layers=1).layers == 1

    def test_state_batch_cap(self):
        # the dataset's complex128 batch is bounded where the config is made,
        # so no graph state is drawn: 50 states fit at n = 20, not at n = 21
        assert 50 * (16 << 20) <= MAX_STATE_BATCH_BYTES < 50 * (16 << 21)
        ExperimentConfig(qubit_counts=(4, 20))
        with pytest.raises(StateBatchCapExceeded) as info:
            ExperimentConfig(qubit_counts=(21, 4))
        assert isinstance(info.value, SymlieError)
        assert (info.value.qubits, info.value.size) == (21, 50)
        assert info.value.nbytes == 50 * (16 << 21)
        assert info.value.cap == MAX_STATE_BATCH_BYTES
        # the dataset size counts too
        with pytest.raises(StateBatchCapExceeded):
            ExperimentConfig(qubit_counts=(20,), dataset_size=66)
        with pytest.raises(StateBatchCapExceeded):
            ExperimentConfig(qubit_counts=(40,), samples_per_point=2)

    def test_subset_cap(self):
        # a permutation-only run builds no amplitudes, so its bound is the
        # subsets its graphs' sweep visits: 50 graphs fit at n = 22, above
        # the state batch cap, not at n = 23
        assert 50 << 22 <= MAX_GRAPH_SUBSETS < 50 << 23
        ExperimentConfig(qubit_counts=(4, 22), ansatz_kinds=PERMUTATION_ONLY)
        with pytest.raises(StateBatchCapExceeded):
            ExperimentConfig(qubit_counts=(4, 22))
        with pytest.raises(SubsetCapExceeded) as info:
            ExperimentConfig(qubit_counts=(23, 4), ansatz_kinds=PERMUTATION_ONLY)
        assert isinstance(info.value, SymlieError)
        assert (info.value.qubits, info.value.size) == (23, 50)
        assert info.value.subsets == 50 << 23
        assert info.value.cap == MAX_GRAPH_SUBSETS
        # exactly at the cap and one graph pair past it
        size = MAX_GRAPH_SUBSETS >> 20
        ExperimentConfig(qubit_counts=(20,), dataset_size=size, ansatz_kinds=PERMUTATION_ONLY)
        with pytest.raises(SubsetCapExceeded):
            ExperimentConfig(qubit_counts=(20,), dataset_size=size + 2,
                             ansatz_kinds=PERMUTATION_ONLY)

    def test_gate_cap(self):
        # 14 gates per permutation layer at n = 4; the largest default
        # circuit, permutation at n = 22, has 12,100
        layers = MAX_CIRCUIT_GATES // 14
        ExperimentConfig(qubit_counts=(4,), layers=layers)
        ExperimentConfig(qubit_counts=(4, 22), ansatz_kinds=PERMUTATION_ONLY)
        with pytest.raises(GateCapExceeded) as info:
            ExperimentConfig(qubit_counts=(4,), layers=layers + 1)
        assert isinstance(info.value, SymlieError)
        assert (info.value.ansatz, info.value.qubits) == ("permutation", 4)
        assert info.value.gates == 14 * (layers + 1)
        assert info.value.cap == MAX_CIRCUIT_GATES
        # the largest qubit count counts, and every ansatz: 14 and 24 gates
        # per cyclic layer at n = 4 and 6, 8 and 12 per strongly-entangling one
        layers = MAX_CIRCUIT_GATES // 20
        kinds = (AnsatzKind.STRONGLY_ENTANGLING, AnsatzKind.CYCLIC)
        ExperimentConfig(qubit_counts=(4,), layers=layers, ansatz_kinds=kinds)
        with pytest.raises(GateCapExceeded, match="cyclic circuit on 6 qubits"):
            ExperimentConfig(qubit_counts=(6, 4), layers=layers, ansatz_kinds=kinds)

    def test_gate_cap_refuses_before_any_circuit(self, monkeypatch):
        # the refusal comes from the config, in the calling process, so no
        # pool worker is started and no circuit is built
        def refuse(*args, **kwargs):
            raise AssertionError("circuit built")

        monkeypatch.setattr(experiment, "build_ansatz", refuse)
        for workers in (1, 2):
            tracemalloc.start()
            try:
                with pytest.raises(GateCapExceeded):
                    run_variance_experiment(ExperimentConfig(
                        qubit_counts=(4,), samples_per_point=2, layers=10**9, workers=workers))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000

    # statevector runs whose gradient holds more than the cap although their
    # dataset, counted as one batch, fits: 36 ZZ phase tables of 256 MiB at
    # n = 24, 33 of 64 MiB at n = 22, 100 of 16 MiB at n = 20
    GRADIENT_REFUSED = [
        dict(qubit_counts=(24,), dataset_size=4, edge_probability=0.2),
        dict(qubit_counts=(22,), dataset_size=16, edge_probability=0.2),
        dict(qubit_counts=(20,), layers=100),
    ]

    @pytest.mark.parametrize("kwargs", GRADIENT_REFUSED)
    def test_gradient_memory_cap_refuses_before_any_draw(self, monkeypatch, kwargs):
        drawn = []
        monkeypatch.setattr(experiment, "_draw_graphs", lambda *args: drawn.append(args))
        with pytest.raises(GradientMemoryCapExceeded) as info:
            run_variance_experiment(ExperimentConfig(
                samples_per_point=2, ansatz_kinds=(AnsatzKind.CYCLIC,), **kwargs))
        assert drawn == []
        n = kwargs["qubit_counts"][0]
        layers = kwargs.get("layers") or experiment.default_layer_count(AnsatzKind.CYCLIC, n)
        assert (info.value.ansatz, info.value.qubits) == ("cyclic", n)
        assert info.value.nbytes == (layers + 5) * (16 << n) > MAX_STATE_BATCH_BYTES
        assert info.value.cap == MAX_STATE_BATCH_BYTES
        assert isinstance(info.value, SymlieError)
        # the permutation ansatz holds no 2^n table, so only the subset cap
        # bounds it
        ExperimentConfig(ansatz_kinds=PERMUTATION_ONLY, **kwargs)

    def test_gradient_memory_cap_admits_default_layers_to_20_qubits(self):
        # every default-layer statevector run of at most 20 qubits and 50
        # rows: cyclic at n = 20 holds (30 + 5) x 16 MiB, strongly-entangling
        # at n = 18 (2 + 5) x 4 MiB
        ExperimentConfig(qubit_counts=(4, 20))
        ExperimentConfig(qubit_counts=(18,), ansatz_kinds=(AnsatzKind.STRONGLY_ENTANGLING,))
        kinds = (AnsatzKind.CYCLIC, AnsatzKind.STRONGLY_ENTANGLING)
        for distance2 in (True, False):
            for n in range(2, 21):
                for size in range(2, 51, 2):
                    ExperimentConfig(qubit_counts=(n,), dataset_size=size, ansatz_kinds=kinds,
                                     cyclic_distance2=distance2)

    def test_subset_cap_refuses_before_any_allocation(self, monkeypatch):
        # both sides of a lowered cap end to end; a refused run draws no
        # graph and allocates next to nothing
        monkeypatch.setattr(experiment, "MAX_GRAPH_SUBSETS", 8 << 5)
        small = dict(samples_per_point=2, dataset_size=8, ansatz_kinds=PERMUTATION_ONLY)
        rows = run_variance_experiment(ExperimentConfig(qubit_counts=(4, 5), **small))
        assert [row.qubits for row in rows] == [4, 5]

        def refuse(*args):
            raise AssertionError("graphs drawn")

        monkeypatch.setattr(experiment, "_draw_graphs", refuse)
        for n in (6, 40):
            tracemalloc.start()
            try:
                with pytest.raises(SubsetCapExceeded):
                    run_variance_experiment(ExperimentConfig(qubit_counts=(4, n), **small))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000

    def test_permutation_only_runs_build_no_amplitudes(self, monkeypatch):
        # the permutation ansatz reads only the graphs; the rows equal those
        # of a run whose graphs are read back off the amplitudes
        def refuse(*args):
            raise AssertionError("amplitudes built")

        cfg = ExperimentConfig(qubit_counts=(4, 5), samples_per_point=3, dataset_size=8,
                               seed=3, ansatz_kinds=PERMUTATION_ONLY)
        with monkeypatch.context() as patched:
            patched.setattr(experiment, "generate_dataset", refuse)
            patched.setattr(experiment, "graph_amplitudes", refuse)
            rows = run_variance_experiment(cfg)
        mixed = run_variance_experiment(replace(cfg, ansatz_kinds=ALL_ANSATZE))
        assert rows == [row for row in mixed if row.ansatz == "permutation"]


SMALL = dict(qubit_counts=(4,), samples_per_point=6, dataset_size=10, seed=12)


class TestExperiment:
    def test_rows_cover_the_grid(self):
        cfg = ExperimentConfig(qubit_counts=(4, 5), samples_per_point=4,
                               dataset_size=8, seed=2)
        rows = run_variance_experiment(cfg)
        assert [(r.qubits, r.ansatz) for r in rows] == [
            (n, kind.value) for kind in cfg.ansatz_kinds for n in (4, 5)]
        for r in rows:
            assert r.samples == 4 and r.seed == 2 and r.slot is None
            assert r.variance >= 0.0

    def test_bit_identical_reruns(self):
        cfg = ExperimentConfig(**SMALL)
        first = run_variance_experiment(cfg)
        second = run_variance_experiment(cfg)
        assert first == second

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 2)  # a pool on any machine
        serial = run_variance_experiment(ExperimentConfig(**SMALL, workers=1))
        parallel = run_variance_experiment(ExperimentConfig(**SMALL, workers=2))
        assert serial == parallel
        # two qubit counts share the workers' datasets in turn, field by field
        for all_slots in (False, True):
            cfg = ExperimentConfig(qubit_counts=(4, 5), samples_per_point=5, dataset_size=8,
                                   seed=4, probe_all_slots=all_slots, layers=2)
            serial = run_variance_experiment(cfg)
            assert run_variance_experiment(replace(cfg, workers=2)) == serial

    def test_all_ansatze_rows_equal_one_run_per_ansatz(self):
        cfg = ExperimentConfig(qubit_counts=(4, 5), samples_per_point=4, dataset_size=8,
                               seed=6, ansatz_kinds=ALL_ANSATZE)
        separate = [row for kind in ALL_ANSATZE
                    for row in run_variance_experiment(replace(cfg, ansatz_kinds=(kind,)))]
        assert run_variance_experiment(cfg) == separate

    def test_each_dataset_drawn_once_per_qubit_count(self, monkeypatch):
        # the run draws the graphs and hands them to every chunk, so the
        # pool workers draw none
        drawn = []
        original = experiment._draw_graphs

        def counting(n, cfg):
            drawn.append(n)
            return original(n, cfg)

        monkeypatch.setattr(experiment, "_draw_graphs", counting)
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 2)
        for workers in (1, 2):
            drawn.clear()
            run_variance_experiment(ExperimentConfig(qubit_counts=(4, 5, 6), samples_per_point=2,
                                                     dataset_size=4, workers=workers))
            assert drawn == [4, 5, 6], workers  # every ansatz and chunk at n shares one draw

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must inherit the patched graph states")
    def test_worker_failure_cancels_the_chunks_not_started(self, monkeypatch, tmp_path):
        started = tmp_path / "started"

        def failing(graphs, n):
            with started.open("a") as log:
                log.write(f"{n}\n")
            time.sleep(0.2)
            raise DatasetGenerationFailed(f"no dataset at n={n}")

        monkeypatch.setattr(experiment, "graph_amplitudes", failing)
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 2)  # a pool on any machine
        cfg = ExperimentConfig(qubit_counts=(4, 5, 6, 7, 8), samples_per_point=4,
                               dataset_size=4, workers=2)
        with pytest.raises(DatasetGenerationFailed, match="no dataset at n=4"):
            run_variance_experiment(cfg)
        # 30 chunks were submitted, 20 of them on the statevector; only
        # those already handed to a worker run
        assert len(started.read_text().split()) < 20

    def test_unbalanced_dataset_fails_before_any_chunk(self, monkeypatch):
        # every qubit count's graphs are drawn before the first chunk is
        # submitted: at n = 12 a cap of 100 draws finds too few disconnected
        # graphs (seed 1 needs 134, n = 4 needs 11), and the pool receives
        # no work, not even n = 4's
        submitted = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                pass

            def submit(self, fn, *args):
                submitted.append(args[:3])
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 2)
        cfg = ExperimentConfig(qubit_counts=(4, 12), samples_per_point=2, dataset_size=10,
                               seed=1, dataset_retry_cap=100, workers=2)
        with pytest.raises(DatasetGenerationFailed, match="n=12"):
            run_variance_experiment(cfg)
        assert submitted == []
        # the same pool runs every chunk once the datasets can be balanced
        rows = run_variance_experiment(replace(cfg, qubit_counts=(4,)))
        assert len(submitted) == 3 * 2 and len(rows) == 3

    @pytest.mark.parametrize("affinity, threads", [({0, 1}, 1), ({0, 1, 2, 3}, 2)])
    def test_blas_threads_follow_the_cpu_affinity(self, monkeypatch, affinity, threads):
        # a process pinned to fewer cores than the machine has sizes each
        # worker's BLAS pool from the cores it may use
        pools = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                pools.append((max_workers, initializer, initargs))

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        run_variance_experiment(ExperimentConfig(qubit_counts=(4,), samples_per_point=2,
                                                 dataset_size=4, workers=2))
        assert pools == [(2, experiment._cap_blas_threads, (threads,))]

    def test_pool_holds_at_most_one_worker_per_core(self, monkeypatch):
        # the pool would fork all its workers at the first submit, so
        # --workers 500 on 2 usable cores starts 2 and splits each point's
        # samples in 2 chunks; on 1 core no pool starts.  No real pool runs.
        pools, chunks = [], []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                pools.append((max_workers, initializer, initargs))

            def submit(self, fn, *args):
                chunks.append(args[-2:])
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        cfg = ExperimentConfig(qubit_counts=(4,), samples_per_point=6, dataset_size=4,
                               ansatz_kinds=PERMUTATION_ONLY, workers=500)
        serial = run_variance_experiment(replace(cfg, workers=1))
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 2)
        assert run_variance_experiment(cfg) == serial
        assert pools == [(2, experiment._cap_blas_threads, (1,))]
        assert chunks == [(0, 3), (3, 6)]
        pools.clear()
        chunks.clear()
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 1)
        assert run_variance_experiment(cfg) == serial
        assert pools == chunks == []

    def test_blas_thread_count_does_not_change_output(self):
        # the block matmuls may run on several BLAS threads; the printed
        # rows must not depend on how many
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run(
                [sys.executable, "-m", "symlie.cli", "variance", "--qubits", "4..8",
                 "--samples", "2"], env=env, capture_output=True, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 10  # header and 3 ansatzes x 3 qubit counts

    def test_all_slots_mode(self):
        cfg = ExperimentConfig(qubit_counts=(4,), samples_per_point=4,
                               dataset_size=8, seed=3, probe_all_slots=True,
                               ansatz_kinds=(AnsatzKind.CYCLIC,), layers=2)
        rows = run_variance_experiment(cfg)
        assert [r.slot for r in rows] == list(range(8))  # 4 slots x 2 layers

    def test_each_circuit_built_once_per_point(self, monkeypatch):
        # the rows' slots come from the gradient columns, not a second build
        built = []
        original = experiment.build_ansatz

        def counting(*args, **kwargs):
            built.append(args[:2])
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "build_ansatz", counting)
        for all_slots in (False, True):
            built.clear()
            cfg = ExperimentConfig(qubit_counts=(4, 5), samples_per_point=2, dataset_size=4,
                                   probe_all_slots=all_slots, layers=2)
            rows = run_variance_experiment(cfg)
            assert len(built) == len(set(built)) == 6  # 3 ansatzes x 2 qubit counts
            if all_slots:
                assert [r.slot for r in rows if r.ansatz == "permutation"] == list(range(6)) * 2

    def test_cyclic_variant_changes_results(self):
        base = ExperimentConfig(**SMALL, ansatz_kinds=(AnsatzKind.CYCLIC,))
        with_t4 = run_variance_experiment(base)
        without_t4 = run_variance_experiment(replace(base, cyclic_distance2=False))
        assert with_t4[0].variance != without_t4[0].variance


STATEVECTOR_ANSATZE = (AnsatzKind.CYCLIC, AnsatzKind.STRONGLY_ENTANGLING)


def chunk_problem(kind, n, samples, all_slots=False):
    """The configuration, graphs and labels of a chunk of `samples` samples
    at n qubits, its circuit and its probed slots."""
    cfg = ExperimentConfig(qubit_counts=(n,), samples_per_point=max(2, samples),
                           ansatz_kinds=(kind,), probe_all_slots=all_slots)
    graphs, labels = experiment._draw_graphs(n, cfg)
    circuit = experiment._build_circuit(kind, n, cfg)
    return cfg, graphs, labels, circuit, experiment._probed_slots(circuit, cfg)


class TestRowChunkedChunks:
    # a statevector chunk builds its graph states a row chunk at a time and
    # sweeps every sample of a tile over each row chunk before the next

    @pytest.mark.parametrize("n", [13, 14])
    @pytest.mark.parametrize("kind", STATEVECTOR_ANSATZE)
    def test_graph_states_come_one_row_chunk_at_a_time(self, monkeypatch, kind, n):
        # no call builds more than one row chunk's states (8 rows of 128 KiB
        # at n = 13, 4 of 256 KiB at 14), and each is built once per tile:
        # the cyclic ansatz's ZZ phases (20 steps of 128 KiB at n = 13, 21
        # of 256 KiB at 14) give tiles of one sample, the
        # strongly-entangling ansatz has none and sweeps both samples on
        # one build
        samples = 2
        cfg, graphs, labels, circuit, slots = chunk_problem(kind, n, samples)
        rows = gradients._chunk_rows(n, len(graphs))
        row_chunks = -(-len(graphs) // rows)
        tile = gradients._tile_samples(circuit, slots, len(graphs), rows, samples)
        tiles = -(-samples // tile)
        assert row_chunks == {13: 7, 14: 13}[n]
        assert tiles == {AnsatzKind.CYCLIC: samples, AnsatzKind.STRONGLY_ENTANGLING: 1}[kind]
        built = []
        original = experiment.graph_amplitudes

        def spy(graphs, n):
            built.append(len(graphs))
            return original(graphs, n)

        monkeypatch.setattr(experiment, "graph_amplitudes", spy)
        experiment._gradient_samples(cfg, kind, n, graphs, labels, 0, samples)
        assert max(built) <= rows
        assert len(built) == row_chunks * tiles
        assert sum(built) == len(graphs) * tiles

    def test_strongly_entangling_chunk_memory(self):
        # two samples at n = 14 hold one row chunk's states (4 rows, 1 MB)
        # and the workspace's four row-chunk batches, 5.8 MB in all, not the
        # dataset's 13 MB of amplitudes beside them (30.2 MB when the chunk
        # built every state, 21.9 MB with row chunks of 16 rows)
        n, kind = 14, AnsatzKind.STRONGLY_ENTANGLING
        cfg, graphs, labels, _, _ = chunk_problem(kind, n, 2)
        tracemalloc.start()
        try:
            experiment._gradient_samples(cfg, kind, n, graphs, labels, 0, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("kind, all_slots, n", [
        # cyclic all-slot gradients take 0.8 s at n = 13 and 1.7 s at 14
        pytest.param(kind, all_slots, n, marks=pytest.mark.slow if (
            kind is AnsatzKind.CYCLIC and all_slots and n >= 13) else ())
        for kind in STATEVECTOR_ANSATZE for all_slots in (False, True) for n in (5, 12, 13, 14)])
    def test_chunk_equals_one_gradient_per_sample(self, kind, all_slots, n):
        # three samples swept row chunk by row chunk, across a cyclic tile
        # boundary from n = 12 on, equal one gradient per sample on the
        # whole dataset's amplitudes, bit for bit
        samples = 3
        cfg, graphs, labels, circuit, slots = chunk_problem(kind, n, samples, all_slots)
        chunk = experiment._gradient_samples(cfg, kind, n, graphs, labels, 0, samples)
        amps, dataset_labels = generate_dataset(n, cfg)
        assert np.array_equal(dataset_labels, labels)
        index = list(AnsatzKind).index(kind)
        for sample in range(samples):
            params = _stream(cfg.seed, 1 + index, n, sample).uniform(*cfg.parameter_range,
                                                                     circuit.n_params)
            alone = gradients._loss_gradient_from_arrays(circuit, params, amps, labels, slots)
            assert np.array_equal(chunk[sample], alone), sample


def emitted(capsys, monkeypatch, rows, *argv):
    """What `symlie variance` prints for `rows`."""
    monkeypatch.setattr(cli, "run_variance_experiment", lambda cfg: rows)
    assert cli.main(["variance", "--qubits", "4", "--samples", "2", *argv]) == 0
    return capsys.readouterr().out


class TestOutputFormats:
    ROWS = [
        VarianceRow(qubits=4, ansatz="permutation", variance=0.125, samples=6, seed=12),
        VarianceRow(qubits=6, ansatz="cyclic", variance=3e-4, samples=6, seed=12),
    ]

    def test_csv_header_and_rows(self, capsys, monkeypatch):
        text = emitted(capsys, monkeypatch, self.ROWS)
        lines = text.strip().split("\n")
        assert lines[0] == "qubits;ansatz;variance;samples;seed"
        assert lines[1] == "4;permutation;0.125;6;12"
        assert lines[2] == "6;cyclic;0.0003;6;12"
        assert len(lines) == 3

    def test_csv_slot_column_only_in_all_slot_mode(self, capsys, monkeypatch):
        rows = [VarianceRow(4, "cyclic", 0.5, 6, 12, slot=3)]
        text = emitted(capsys, monkeypatch, rows, "--all-slots")
        assert text.startswith("qubits;ansatz;slot;variance;samples;seed")
        assert "4;cyclic;3;0.5;6;12" in text

    def test_json_round_trip(self, capsys, monkeypatch):
        data = json.loads(emitted(capsys, monkeypatch, self.ROWS, "--format", "json"))
        assert data[0] == {"qubits": 4, "ansatz": "permutation",
                           "variance": 0.125, "samples": 6, "seed": 12}

    def test_variance_repr_round_trips(self, capsys, monkeypatch):
        value = 1.2345678901234567e-05
        row = VarianceRow(4, "cyclic", value, 6, 12)
        emitted_row = emitted(capsys, monkeypatch, [row]).strip().split("\n")[1]
        assert float(emitted_row.split(";")[2]) == value

    @pytest.mark.parametrize("all_slots", [False, True])
    def test_cli_output_parses_back_to_the_rows(self, capsys, all_slots):
        # the slot is the third CSV column and the last JSON key, and only
        # with --all-slots
        cfg = ExperimentConfig(qubit_counts=(4, 5), samples_per_point=3, dataset_size=6,
                               seed=2, layers=2, probe_all_slots=all_slots)
        rows = run_variance_experiment(cfg)
        argv = ["variance", "--qubits", "4,5", "--samples", "3", "--dataset-size", "6",
                "--seed", "2", "--layers", "2"] + ["--all-slots"] * all_slots
        assert cli.main(argv) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        columns = ["qubits", "ansatz", "slot", "variance", "samples", "seed"]
        if not all_slots:
            columns.remove("slot")
        assert header == ";".join(columns)
        types = {"ansatz": str, "variance": float}
        parsed = [VarianceRow(**{c: types.get(c, int)(v)
                                 for c, v in zip(columns, line.split(";"))})
                  for line in lines]
        assert parsed == rows
        assert cli.main(argv + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        keys = ["qubits", "ansatz", "variance", "samples", "seed"] + ["slot"] * all_slots
        assert [list(item) for item in data] == [keys] * len(rows)
        assert [VarianceRow(**item) for item in data] == rows


def _loaded_by(module, candidates):
    """Those of `candidates` that a fresh interpreter has loaded after
    importing `module`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (f"import sys, {module}; "
            f"print([m for m in {tuple(candidates)!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout


def test_variance_lab_loads_no_dimension_route():
    # the experiment needs the Pauli matrices and bit counts of
    # symlie.indexing, not the orbit scan or the oracle behind them
    routes = ("symlie.pauli_orbits", "symlie.permutation_rep", "symlie.dense_oracle")
    assert _loaded_by("symlie.variance_lab", routes) == "[]\n"


@pytest.mark.parametrize("route, others", [
    ("combinatorics", ("permutation_rep", "pauli_orbits", "dense_oracle")),
    ("dense_oracle", ("pauli_orbits",)),
    ("pauli_orbits", ("dense_oracle",)),
])
def test_dimension_routes_load_independently(route, others):
    # the three routes share nothing but the group's generators
    # (permutation_rep), which the cycle index does not need; their
    # agreement means something only while each loads without the others
    assert _loaded_by(f"symlie.{route}", [f"symlie.{m}" for m in others]) == "[]\n"
