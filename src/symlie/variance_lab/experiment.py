"""The gradient-variance scaling experiment on graph-state classification.

For every qubit count the experiment draws a balanced dataset of connected
(+1) and disconnected (-1) Erdos-Renyi graphs embedded as graph states,
samples parameter vectors uniformly, evaluates the loss gradient at a probe
slot in the middle of the circuit, and reports the unbiased sample variance
of those gradients per ansatz family.  The permutation ansatz and the
parity observable commute with S_n, so its gradients are computed on the
spin blocks of each dataset state (`spin_blocks`), reduced from the state's
graph once per chunk of samples; a run whose only ansatz is the permutation
one builds no amplitude.  The other ansatzes run on the statevector: a chunk
writes the graph states of one row chunk of the dataset at a time, by one
sweep over their vertex subsets, and sweeps every sample of a tile over
them before it drops them and builds the next row chunk's
(`gradients._loss_gradients`), so no batch of the whole dataset's states
is built.  Its gradients reuse one workspace of free batches
(`simulator.Workspace`), dropped when the chunk ends.

The run draws each qubit count's graphs once, before any gradient, a block
of graphs drawn and labelled at a time, and hands them to every chunk at
that qubit count, in this process or a pool worker; no dataset outlives the
run.  The points run in n-major order (for each qubit count, every ansatz).
A pool has one process per requested worker up to the usable cores, and
as many chunks of samples per point; every chunk is submitted before any
is collected, and the rows come out in ansatz-major order.  The rows are
written out by the CLI.

Randomness is fully pinned: all streams are PCG64 generators seeded from
``SeedSequence(entropy=seed, spawn_key=...)``, with key ``(0, n)`` for the
dataset at n qubits and ``(1 + ansatz_index, n, sample_index)`` for each
parameter draw (ansatz_index is the position in the AnsatzKind enum).
Uniform reals use NumPy's 53-bit-mantissa convention.  Results are therefore
bit-identical for a fixed seed, independent of the worker count.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import (DatasetGenerationFailed, GateCapExceeded, GradientMemoryCapExceeded,
                      StateBatchCapExceeded, SubsetCapExceeded)
from ..indexing import MAX_CIRCUIT_GATES, MAX_GRAPH_SUBSETS, MAX_STATE_BATCH_BYTES
from .circuits import AnsatzKind, build_ansatz, default_layer_count, gate_count, probe_slot
# `_loss_gradient_from_arrays` is the one-sample case of `_loss_gradients`;
# it stays importable here, where the benchmark's tracer wraps it by name
from .gradients import _chunk_rows, _loss_gradient_from_arrays, _loss_gradients  # noqa: F401
from .simulator import Circuit, Workspace, graph_amplitudes
from .spin_blocks import graph_spin_states, loss_gradient_from_blocks

__all__ = [
    "ExperimentConfig",
    "VarianceRow",
    "generate_dataset",
    "run_variance_experiment",
]

ALL_ANSATZE = (AnsatzKind.PERMUTATION, AnsatzKind.CYCLIC, AnsatzKind.STRONGLY_ENTANGLING)


@dataclass(frozen=True)
class ExperimentConfig:
    qubit_counts: Tuple[int, ...] = (4, 6, 8, 10)
    samples_per_point: int = 200
    dataset_size: int = 50
    edge_probability: float = 0.4
    parameter_range: Tuple[float, float] = (-2 * math.pi, 2 * math.pi)
    seed: int = 1
    ansatz_kinds: Tuple[AnsatzKind, ...] = ALL_ANSATZE
    probe_all_slots: bool = False
    cyclic_distance2: bool = True
    layers: Optional[int] = None
    workers: int = 1
    dataset_retry_cap: int = 10_000

    def __post_init__(self):
        if not self.qubit_counts or any(n < 2 for n in self.qubit_counts):
            raise ValueError("qubit counts must all be >= 2")
        if len(set(self.qubit_counts)) < len(self.qubit_counts):
            raise ValueError(f"qubit counts must be distinct, got {list(self.qubit_counts)}")
        if not self.ansatz_kinds or len(set(self.ansatz_kinds)) < len(self.ansatz_kinds):
            raise ValueError("ansatz kinds must be distinct and at least one, got "
                             f"{[kind.value for kind in self.ansatz_kinds]}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.samples_per_point < 2:
            # the variance is the unbiased (ddof=1) estimate
            raise ValueError("samples_per_point must be >= 2")
        if self.dataset_size < 2 or self.dataset_size % 2:
            raise ValueError("dataset_size must be a positive even number")
        if not 0.0 < self.edge_probability < 1.0:
            raise ValueError("edge_probability must lie in (0, 1)")
        lo, hi = self.parameter_range
        if not lo < hi:
            raise ValueError("parameter_range must be a nonempty interval")
        if self.layers is not None and self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # the largest dataset, refused before any graph is drawn: its
        # complex128 amplitudes counted as one batch when an ansatz runs on
        # the statevector (though only a row chunk's are built at a time),
        # else the vertex subsets its graphs' sweep visits
        n = max(self.qubit_counts)
        if _needs_amplitudes(self):
            nbytes = self.dataset_size * (16 << n)
            if nbytes > MAX_STATE_BATCH_BYTES:
                raise StateBatchCapExceeded(n, self.dataset_size, nbytes, MAX_STATE_BATCH_BYTES)
        elif self.dataset_size << n > MAX_GRAPH_SUBSETS:
            raise SubsetCapExceeded(n, self.dataset_size, self.dataset_size << n,
                                    MAX_GRAPH_SUBSETS)
        # the largest circuit, refused here so that a pool worker never
        # builds it
        for kind in self.ansatz_kinds:
            gates = gate_count(kind, n, _layer_count(kind, n, self), self.cyclic_distance2)
            if gates > MAX_CIRCUIT_GATES:
                raise GateCapExceeded(kind.value, n, gates, MAX_CIRCUIT_GATES)
        # what a statevector gradient holds: a 2^n table per layer (a
        # sample's ZZ phases or a CNOT step's gather pair) and five
        # row-chunk batches (the row chunk's states and the workspace's four)
        for kind in self.ansatz_kinds:
            if kind is AnsatzKind.PERMUTATION:
                continue
            tables = _layer_count(kind, n, self) + 5 * _chunk_rows(n, self.dataset_size)
            nbytes = tables * (16 << n)
            if nbytes > MAX_STATE_BATCH_BYTES:
                raise GradientMemoryCapExceeded(kind.value, n, nbytes, MAX_STATE_BATCH_BYTES)


@dataclass(frozen=True)
class VarianceRow:
    qubits: int
    ansatz: str
    variance: float
    samples: int
    seed: int
    slot: Optional[int] = None


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=key)))


# graphs drawn and labelled at a time; a block's arrays stay under 0.5 MB to n = 22
_GRAPH_BLOCK_ROWS = 256


def _connected_rows(masks: np.ndarray) -> np.ndarray:
    """Connectivity of each graph of a (rows, n) array of neighbour masks:
    the set reached from vertex 0 grows by OR-ing in the masks of the
    vertices it holds until it stops growing, and a graph is connected iff
    it then holds all n vertices."""
    bits = 1 << np.arange(masks.shape[-1] - 1, -1, -1)
    reached = np.full(len(masks), bits[0])
    while True:
        grown = reached | np.bitwise_or.reduce(masks * (reached[:, None] & bits > 0), axis=1)
        if np.array_equal(grown, reached):
            return reached == 2 * bits[0] - 1
        reached = grown


def _draw_graphs(n: int, cfg: ExperimentConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The dataset's graphs as rows of neighbour masks (`simulator.subset_codes`)
    and their labels: half connected (+1), half disconnected (-1).

    Erdos-Renyi G(n, p) graphs, one coin per pair in (i, j), i < j order,
    are drawn and kept only while their class still has room (per-class
    rejection sampling); needing more than `dataset_retry_cap` draws raises
    DatasetGenerationFailed.  The coins of up to _GRAPH_BLOCK_ROWS graphs
    are read in one call, made masks by one product with a pair-to-bit
    matrix and labelled by one vectorised connectivity test.  The stream
    feeds only this dataset, so reading past the last kept graph changes
    nothing."""
    rng = _stream(cfg.seed, 0, n)
    first, second = np.triu_indices(n, 1)
    # pair (i, j) sets bit n-1-j of mask i and bit n-1-i of mask j
    pair_bits = np.zeros((len(first), n), dtype=np.int64)
    pair_bits[np.arange(len(first)), first] = 1 << (n - 1 - second)
    pair_bits[np.arange(len(first)), second] = 1 << (n - 1 - first)
    quota = {1.0: cfg.dataset_size // 2, -1.0: cfg.dataset_size // 2}
    graphs = np.empty((cfg.dataset_size, n), dtype=np.int64)
    labels: List[float] = []
    drawn = 0
    while quota[1.0] or quota[-1.0]:
        if drawn >= cfg.dataset_retry_cap:
            raise DatasetGenerationFailed(
                f"could not balance classes for n={n}, p={cfg.edge_probability} "
                f"within {cfg.dataset_retry_cap} draws (still need "
                f"{quota[1.0]} connected, {quota[-1.0]} disconnected)")
        rows = min(_GRAPH_BLOCK_ROWS, cfg.dataset_retry_cap - drawn)
        coins = rng.random((rows, len(first))) < cfg.edge_probability
        drawn += rows
        block = coins.astype(np.int64) @ pair_bits
        for masks, connected in zip(block, _connected_rows(block)):
            label = 1.0 if connected else -1.0
            if quota[label]:
                quota[label] -= 1
                graphs[len(labels)] = masks
                labels.append(label)
    return graphs, np.array(labels)


def generate_dataset(n: int, cfg: ExperimentConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Balanced graph-state dataset: the amplitudes of the graphs that
    `_draw_graphs` keeps, one row each, and their labels.

    The amplitudes are written by one subset sweep per block of graphs
    (`simulator.graph_amplitudes`) into one preallocated batch.  The run
    itself does not call this: it draws the graphs, and each chunk builds
    the states of one row chunk at a time (`_gradient_samples`); the tests
    and the benchmark's finite-difference check use it for a dataset's
    states."""
    graphs, labels = _draw_graphs(n, cfg)
    return graph_amplitudes(graphs, n), labels


def _needs_amplitudes(cfg: ExperimentConfig) -> bool:
    """Whether an ansatz of `cfg` runs on the statevector; the permutation
    ansatz reads only the graphs."""
    return any(kind is not AnsatzKind.PERMUTATION for kind in cfg.ansatz_kinds)


def _layer_count(kind: AnsatzKind, n: int, cfg: ExperimentConfig) -> int:
    return cfg.layers if cfg.layers is not None else default_layer_count(
        kind, n, cfg.cyclic_distance2)


def _build_circuit(kind: AnsatzKind, n: int, cfg: ExperimentConfig):
    return build_ansatz(kind, n, _layer_count(kind, n, cfg),
                        cyclic_distance2=cfg.cyclic_distance2)


def _probed_slots(circuit: Circuit, cfg: ExperimentConfig) -> List[int]:
    return list(range(circuit.n_params)) if cfg.probe_all_slots else [probe_slot(circuit)]


def _gradient_samples(cfg: ExperimentConfig, kind: AnsatzKind, n: int,
                      graphs: np.ndarray, labels: np.ndarray,
                      start: int, stop: int) -> np.ndarray:
    """Gradients for samples [start, stop) on the dataset of `graphs`
    (`_draw_graphs`); shape (stop-start, n_probed_slots)."""
    circuit = _build_circuit(kind, n, cfg)
    slots = _probed_slots(circuit, cfg)
    ansatz_index = list(AnsatzKind).index(kind)
    lo, hi = cfg.parameter_range
    params = [_stream(cfg.seed, 1 + ansatz_index, n, sample).uniform(lo, hi, circuit.n_params)
              for sample in range(start, stop)]
    if kind is AnsatzKind.PERMUTATION:
        # the ansatz and the parity commute with S_n: each state enters the
        # loss only through its spin blocks, reduced from its graph once per
        # chunk
        blocks = graph_spin_states(graphs, n)
        return np.array([loss_gradient_from_blocks(circuit, p, blocks, labels, slots)
                         for p in params])
    # each row chunk's graph states are built once per tile of samples and
    # dropped after it, and the gradients sweep through one workspace's
    # batches, dropped with the chunk
    return _loss_gradients(circuit, params, labels, slots,
                           lambda rows: graph_amplitudes(graphs[rows], n), Workspace())


# thread-count setters exported by OpenBLAS builds, plain and as renamed in
# the copy that NumPy wheels bundle
_BLAS_THREAD_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads")


def _cap_blas_threads(threads: int) -> None:
    """Pool initializer: limit the loaded OpenBLAS to `threads` threads.

    Workers x BLAS threads above the core count make the block matmuls spin
    instead of compute.  Best effort: where the library or its setter cannot
    be found (no /proc, another BLAS), nothing changes.  The printed results
    do not depend on the thread count (tests compare 1 thread with the
    default).
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        for path in sorted(paths):
            library = ctypes.CDLL(path)
            for name in _BLAS_THREAD_SETTERS:
                setter = getattr(library, name, None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(threads)
                    return
    except OSError:
        return


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, which a pinned process keeps below `os.cpu_count()`."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _collect_points(cfg: ExperimentConfig, pool: Optional[ProcessPoolExecutor], workers: int
                    ) -> Dict[Tuple[AnsatzKind, int], np.ndarray]:
    """Gradients of every (ansatz, n) point, in `workers` chunks of samples
    each when a pool is given.  Each qubit count's graphs are drawn once,
    before any gradient, and handed to every chunk at that n; a dataset
    that cannot be balanced fails the run before any chunk runs."""
    datasets = {n: _draw_graphs(n, cfg) for n in cfg.qubit_counts}
    points = [(kind, n) for n in cfg.qubit_counts for kind in cfg.ansatz_kinds]
    total = cfg.samples_per_point
    if pool is None:
        return {(kind, n): _gradient_samples(cfg, kind, n, *datasets[n], 0, total)
                for kind, n in points}
    chunk = max(1, math.ceil(total / workers))
    # every chunk is submitted before any is collected, so no point waits
    # for the one before it
    futures = {(kind, n): [pool.submit(_gradient_samples, cfg, kind, n, *datasets[n], s,
                                       min(s + chunk, total))
                           for s in range(0, total, chunk)]
               for kind, n in points}
    return {point: np.concatenate([f.result() for f in chunks])
            for point, chunks in futures.items()}


def run_variance_experiment(cfg: ExperimentConfig) -> List[VarianceRow]:
    """One row per (qubit count, ansatz) in default mode; one row per slot
    when probe_all_slots is set.  Rows are ordered by ansatz, then n.  The
    samples run on min(cfg.workers, usable cores) processes."""
    # a process per usable core at most: the pool starts all its workers at
    # the first submit, and chunking changes no result
    cores = _usable_cores()
    workers = min(cfg.workers, cores)
    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_cap_blas_threads,
                                   initargs=(cores // workers,))
    try:
        grads = _collect_points(cfg, pool, workers)
    finally:
        if pool is not None:
            # after a failed chunk, the chunks not yet started never run
            pool.shutdown(cancel_futures=True)
    rows: List[VarianceRow] = []
    for kind in cfg.ansatz_kinds:
        for n in cfg.qubit_counts:
            point = grads[kind, n]
            # all-slot mode probes slots 0, 1, ... in column order
            for slot in range(point.shape[1]):
                variance = float(np.var(point[:, slot], ddof=1))
                rows.append(VarianceRow(
                    qubits=n, ansatz=kind.value, variance=variance,
                    samples=cfg.samples_per_point, seed=cfg.seed,
                    slot=slot if cfg.probe_all_slots else None))
    return rows
