"""The gradient-variance scaling experiment on graph-state classification.

For every qubit count the experiment draws a balanced dataset of connected
(+1) and disconnected (-1) Erdos-Renyi graphs embedded as graph states,
samples parameter vectors uniformly, evaluates the loss gradient at a probe
slot in the middle of the circuit, and reports the unbiased sample variance
of those gradients per ansatz family.

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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DatasetGenerationFailed
from .circuits import AnsatzKind, build_ansatz, default_layer_count, probe_slot
from .gradients import _loss_gradient_from_arrays
from .simulator import Circuit, graph_state

__all__ = [
    "ExperimentConfig",
    "VarianceRow",
    "random_graph",
    "is_connected",
    "generate_dataset",
    "run_variance_experiment",
    "rows_to_csv",
    "rows_to_json",
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
    target_slots_per_qubit: int = 6
    workers: int = 1
    dataset_retry_cap: int = 10_000

    def __post_init__(self):
        if not self.qubit_counts or any(n < 2 for n in self.qubit_counts):
            raise ValueError("qubit counts must all be >= 2")
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
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


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


def random_graph(n: int, p: float, rng: np.random.Generator) -> List[Tuple[int, int]]:
    """Erdos-Renyi G(n, p); pairs are tried in (i, j), i < j order.

    One vector draw of n(n-1)/2 coins reads the same stream values as one
    scalar draw per pair."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coins = rng.random(len(pairs))
    return [pair for pair, coin in zip(pairs, coins) if coin < p]


def is_connected(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    """Union-find connectivity over the edge list."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components == 1


def generate_dataset(n: int, cfg: ExperimentConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Balanced graph-state dataset: half connected (+1), half disconnected (-1).

    Graphs are drawn and kept only while their class still has room
    (per-class rejection sampling); exceeding the retry cap raises
    DatasetGenerationFailed.
    """
    rng = _stream(cfg.seed, 0, n)
    quota = {1.0: cfg.dataset_size // 2, -1.0: cfg.dataset_size // 2}
    states: List[np.ndarray] = []
    labels: List[float] = []
    attempts = 0
    while quota[1.0] or quota[-1.0]:
        attempts += 1
        if attempts > cfg.dataset_retry_cap:
            raise DatasetGenerationFailed(
                f"could not balance classes for n={n}, p={cfg.edge_probability} "
                f"within {cfg.dataset_retry_cap} draws (still need "
                f"{quota[1.0]} connected, {quota[-1.0]} disconnected)")
        edges = random_graph(n, cfg.edge_probability, rng)
        label = 1.0 if is_connected(n, edges) else -1.0
        if quota[label]:
            quota[label] -= 1
            states.append(graph_state(edges, n).amplitudes)
            labels.append(label)
    return np.stack(states), np.array(labels)


def _build_circuit(kind: AnsatzKind, n: int, cfg: ExperimentConfig):
    layers = cfg.layers if cfg.layers is not None else default_layer_count(
        kind, n, cfg.target_slots_per_qubit, cfg.cyclic_distance2)
    return build_ansatz(kind, n, layers, cyclic_distance2=cfg.cyclic_distance2)


def _probed_slots(circuit: Circuit, cfg: ExperimentConfig) -> List[int]:
    return list(range(circuit.n_params)) if cfg.probe_all_slots else [probe_slot(circuit)]


def _gradient_samples(cfg: ExperimentConfig, kind: AnsatzKind, n: int,
                      start: int, stop: int) -> np.ndarray:
    """Gradients for samples [start, stop); shape (stop-start, n_probed_slots)."""
    circuit = _build_circuit(kind, n, cfg)
    amps, labels = generate_dataset(n, cfg)
    slots = _probed_slots(circuit, cfg)
    ansatz_index = list(AnsatzKind).index(kind)
    lo, hi = cfg.parameter_range
    out = np.empty((stop - start, len(slots)))
    for row, sample in enumerate(range(start, stop)):
        rng = _stream(cfg.seed, 1 + ansatz_index, n, sample)
        params = rng.uniform(lo, hi, circuit.n_params)
        out[row] = _loss_gradient_from_arrays(circuit, params, amps, labels, slots)
    return out


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


def _collect_point(cfg: ExperimentConfig, kind: AnsatzKind, n: int,
                   pool: Optional[ProcessPoolExecutor]) -> np.ndarray:
    total = cfg.samples_per_point
    if pool is None:
        return _gradient_samples(cfg, kind, n, 0, total)
    chunk = max(1, math.ceil(total / cfg.workers))
    futures = [pool.submit(_gradient_samples, cfg, kind, n, s, min(s + chunk, total))
               for s in range(0, total, chunk)]
    return np.concatenate([f.result() for f in futures])


def run_variance_experiment(cfg: ExperimentConfig) -> List[VarianceRow]:
    """One row per (qubit count, ansatz) in default mode; one row per slot
    when probe_all_slots is set."""
    rows: List[VarianceRow] = []
    pool = None
    if cfg.workers > 1:
        threads = max(1, (os.cpu_count() or 1) // cfg.workers)
        pool = ProcessPoolExecutor(max_workers=cfg.workers, initializer=_cap_blas_threads,
                                   initargs=(threads,))
    try:
        for kind in cfg.ansatz_kinds:
            for n in cfg.qubit_counts:
                grads = _collect_point(cfg, kind, n, pool)
                slots = _probed_slots(_build_circuit(kind, n, cfg), cfg)
                for col, slot in enumerate(slots):
                    variance = float(np.var(grads[:, col], ddof=1))
                    rows.append(VarianceRow(
                        qubits=n, ansatz=kind.value, variance=variance,
                        samples=cfg.samples_per_point, seed=cfg.seed,
                        slot=slot if cfg.probe_all_slots else None))
    finally:
        if pool is not None:
            pool.shutdown()
    return rows


def rows_to_csv(rows: Sequence[VarianceRow]) -> str:
    """Semicolon-delimited table; a slot column appears only in all-slot mode."""
    with_slot = any(r.slot is not None for r in rows)
    columns = [c for c in ("qubits", "ansatz", "slot", "variance", "samples", "seed")
               if with_slot or c != "slot"]
    lines = [";".join(columns)]
    lines += [";".join(repr(r.variance) if c == "variance" else str(getattr(r, c))
                       for c in columns) for r in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[VarianceRow]) -> List[dict]:
    out = []
    for r in rows:
        item = {"qubits": r.qubits, "ansatz": r.ansatz, "variance": r.variance,
                "samples": r.samples, "seed": r.seed}
        if r.slot is not None:
            item["slot"] = r.slot
        out.append(item)
    return out
