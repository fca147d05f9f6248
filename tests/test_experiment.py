"""Dataset generation, experiment determinism, and output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symlie.errors import DatasetGenerationFailed
from symlie.variance_lab import (
    AnsatzKind,
    ExperimentConfig,
    generate_dataset,
    is_connected,
    random_graph,
    rows_to_csv,
    rows_to_json,
    run_variance_experiment,
)
from symlie.variance_lab.experiment import VarianceRow, _stream


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

    def test_retry_cap_raises(self):
        # p close to 1 starves the disconnected class
        cfg = ExperimentConfig(qubit_counts=(8,), dataset_size=10, seed=1,
                               edge_probability=0.99, dataset_retry_cap=300)
        with pytest.raises(DatasetGenerationFailed):
            generate_dataset(8, cfg)

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
        assert rows_to_csv(first) == rows_to_csv(second)

    def test_worker_count_does_not_change_results(self):
        serial = run_variance_experiment(ExperimentConfig(**SMALL, workers=1))
        parallel = run_variance_experiment(ExperimentConfig(**SMALL, workers=2))
        assert rows_to_csv(serial) == rows_to_csv(parallel)

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

    def test_cyclic_variant_changes_results(self):
        base = ExperimentConfig(**SMALL, ansatz_kinds=(AnsatzKind.CYCLIC,))
        with_t4 = run_variance_experiment(base)
        from dataclasses import replace
        without_t4 = run_variance_experiment(replace(base, cyclic_distance2=False))
        assert with_t4[0].variance != without_t4[0].variance


class TestOutputFormats:
    ROWS = [
        VarianceRow(qubits=4, ansatz="permutation", variance=0.125, samples=6, seed=12),
        VarianceRow(qubits=6, ansatz="cyclic", variance=3e-4, samples=6, seed=12),
    ]

    def test_csv_header_and_rows(self):
        text = rows_to_csv(self.ROWS)
        lines = text.strip().split("\n")
        assert lines[0] == "qubits;ansatz;variance;samples;seed"
        assert lines[1] == "4;permutation;0.125;6;12"
        assert lines[2] == "6;cyclic;0.0003;6;12"
        assert len(lines) == 3

    def test_csv_slot_column_only_in_all_slot_mode(self):
        rows = [VarianceRow(4, "cyclic", 0.5, 6, 12, slot=3)]
        text = rows_to_csv(rows)
        assert text.startswith("qubits;ansatz;slot;variance;samples;seed")
        assert "4;cyclic;3;0.5;6;12" in text

    def test_json_round_trip(self):
        data = json.loads(json.dumps(rows_to_json(self.ROWS)))
        assert data[0] == {"qubits": 4, "ansatz": "permutation",
                           "variance": 0.125, "samples": 6, "seed": 12}

    def test_variance_repr_round_trips(self):
        value = 1.2345678901234567e-05
        row = VarianceRow(4, "cyclic", value, 6, 12)
        emitted = rows_to_csv([row]).strip().split("\n")[1].split(";")[2]
        assert float(emitted) == value
