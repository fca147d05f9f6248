"""Spans around symlie's layer boundaries, recorded from outside the package.

`Tracer.install` replaces the module-level names that callers look up at run
time (for example `gradients._run_batch`, which `_loss_gradient_from_arrays`
resolves on every call) with wrappers that record a span: name, tag, start,
end, parent and an optional value such as bytes or words.  Nothing in
`src/` changes.  Spans stay in memory until the pass ends.

Process-pool workers are forked after `install`, so they inherit the
wrappers.  A worker keeps the spans of one `_gradient_samples` chunk and
writes them to the spool directory when the chunk ends; `merge_worker_spans`
folds them into the parent's list under the `run_variance_experiment` span
that was open at the time.  `time.perf_counter` reads CLOCK_MONOTONIC on
Linux, which all processes share, so the merged intervals line up.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

# A span is [name, tag, start, end, parent, value]; parent indexes the same list.
NAME, TAG, START, END, PARENT, VALUE = range(6)

GATE_GROUP = {"RX": "1q", "RY": "1q", "RZ": "1q", "H": "1q", "ROT3": "1q",
              "ZZ": "zz", "CZ": "cz", "CNOT": "cnot"}
GATE_GROUPS = ("1q", "zz", "cz", "cnot")
ANSATZE = ("permutation", "cyclic", "strongly-entangling")


def _state_bytes(amps) -> int:
    # a kernel pass reads the batch once and writes it once
    return 2 * amps.nbytes


def _gate_bytes(args, _result) -> int:
    amps, gate = args[0], args[1]
    # ROT3 is applied as three single-qubit passes
    return _state_bytes(amps) * (3 if gate.kind.value == "ROT3" else 1)


def _boundaries():
    """(module, attribute, span name, tag function, value function) per boundary."""
    from symlie import cli, combinatorics, dense_oracle, pauli_orbits
    from symlie.variance_lab import experiment, gradients, simulator

    return [
        (cli, "run_variance_experiment", "experiment.run_variance_experiment", None, None),
        (experiment, "_gradient_samples", "experiment._gradient_samples",
         lambda a: a[1].value, None),
        (experiment, "generate_dataset", "experiment.generate_dataset", None, None),
        (experiment, "build_ansatz", "circuits.build_ansatz", None, None),
        (experiment, "_loss_gradient_from_arrays", "experiment._loss_gradient_from_arrays",
         None, None),
        (gradients, "_run_batch", "gradients._run_batch", None,
         lambda a, r: _state_bytes(a[2])),
        (gradients, "_parity_batch", "gradients._parity_batch", None, None),
        (simulator, "_apply_gate_array", "simulator._apply_gate_array",
         lambda a: GATE_GROUP[a[1].kind.value], _gate_bytes),
        (simulator, "_summed_pair_signs", "simulator._summed_pair_signs", None, None),
        (cli, "enumerate_invariant_basis", "pauli_orbits.enumerate_invariant_basis", None,
         lambda a, r: len(r)),
        (pauli_orbits, "orbit_canonical_labels", "pauli_orbits.orbit_canonical_labels", None,
         lambda a, r: r.size),
        (cli, "group_constraint_matrices", "dense_oracle.group_constraint_matrices", None, None),
        (cli, "energy_hamiltonian", "dense_oracle.energy_hamiltonian", None, None),
        (cli, "commutant_dimension", "dense_oracle.commutant_dimension", None,
         lambda a, r: r.singular_value_gap),
        (dense_oracle, "_constraint_matrix", "dense_oracle._constraint_matrix", None,
         lambda a, r: r.nbytes),
        (np.linalg, "svd", "dense_oracle.svd", None, None),
        (combinatorics, "dim_invariant_algebra", "combinatorics.dim", None, None),
        (combinatorics, "dim_product", "combinatorics.dim", None, None),
        (combinatorics, "dim_energy_preserving", "combinatorics.dim", None, None),
    ]


class Tracer:
    """Records spans while installed; one per traced pass."""

    WORKER_ROOT = "experiment._gradient_samples"

    def __init__(self, spool: Path):
        self.spool = spool
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.pid = os.getpid()
        self.in_worker = False
        self._saved: list = []

    def span(self, name: str, fn: Callable, args, kwargs,
             tag: Optional[str] = None, value_fn=None):
        if name == self.WORKER_ROOT and os.getpid() != self.pid:
            # first chunk in a forked worker: drop the parent's inherited spans
            self.pid, self.in_worker = os.getpid(), True
            self.spans, self.stack = [], []
        record = [name, tag, 0.0, 0.0, self.stack[-1] if self.stack else None, None]
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)
        record[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            self.stack.pop()
        if value_fn is not None:
            record[VALUE] = value_fn(args, result)
        if self.in_worker and not self.stack:
            self._flush_worker()
        return result

    def _flush_worker(self) -> None:
        path = self.spool / f"{os.getpid()}-{time.perf_counter_ns()}.json"
        path.write_text(json.dumps(self.spans))
        self.spans = []

    def install(self) -> None:
        for module, attr, name, tag_fn, value_fn in _boundaries():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, tag_fn, value_fn))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrapper(self, fn, name, tag_fn, value_fn):
        # functools.wraps keeps __module__ and __qualname__, so a wrapped
        # `_gradient_samples` still pickles by reference into the pool.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = tag_fn(args) if tag_fn is not None else None
            return self.span(name, fn, args, kwargs, tag, value_fn)
        return wrapper

    def merge_worker_spans(self) -> int:
        """Fold the spool's worker spans into `spans`; returns the chunk count."""
        roots = [i for i, s in enumerate(self.spans)
                 if s[NAME] == "experiment.run_variance_experiment"]
        chunks = 0
        for path in sorted(self.spool.glob("*.json")):
            worker = json.loads(path.read_text())
            path.unlink()
            offset = len(self.spans)
            for s in worker:
                if s[PARENT] is None:
                    chunks += 1
                    s[PARENT] = next((r for r in roots if self.spans[r][START] <= s[START]
                                      and s[END] <= self.spans[r][END]), None)
                    if s[PARENT] is None:
                        raise RuntimeError("worker chunk outside every experiment span")
                else:
                    s[PARENT] += offset
                self.spans.append(s)
        return chunks


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Time one recorded span adds to a call: a wrapped no-op against the
    bare no-op, median over repeats.  Times the number of spans it gives
    the tracing overhead of a pass, which the run-to-run noise of two
    whole passes would swamp."""
    def noop():
        return None

    tracer = Tracer(Path("."))
    wrapped = tracer._wrapper(noop, "calibrate", None, None)
    costs = []
    for _ in range(repeats):
        tracer.spans = []
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _union_length(intervals: List[tuple]) -> float:
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            p = spans[s[PARENT]]
            lo, hi = max(s[START], p[START]), min(s[END], p[END])
            if hi > lo:
                children[s[PARENT]].append((lo, hi))
    return [s[END] - s[START] - _union_length(children[i]) for i, s in enumerate(spans)]


def _ancestor_tag(spans: List[list], i: int, name: str) -> Optional[str]:
    p = spans[i][PARENT]
    while p is not None:
        if spans[p][NAME] == name:
            return spans[p][TAG]
        p = spans[p][PARENT]
    return None


def layer_metrics(spans: List[list], workers: int) -> Dict[str, float]:
    """Per-module totals, self times and exact counts of one traced pass."""
    selfs = self_times(spans)
    count: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    value: Dict[str, float] = defaultdict(float)
    gate_s: Dict[str, float] = defaultdict(float)
    gate_calls: Dict[str, int] = defaultdict(int)
    grad_s: Dict[str, float] = defaultdict(float)
    gaps = []
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        count[name] += 1
        total[name] += dur
        own[name] += selfs[i]
        if name == "simulator._apply_gate_array":
            gate_s[s[TAG]] += dur
            gate_calls[s[TAG]] += 1
        elif name == "experiment._loss_gradient_from_arrays":
            grad_s[_ancestor_tag(spans, i, Tracer.WORKER_ROOT)] += dur
        elif name == "simulator._summed_pair_signs":
            # a fused ZZ run reads and writes the batch once, like the copy
            # its enclosing _run_batch made
            value[name] += spans[s[PARENT]][VALUE] if s[PARENT] is not None else 0
        if name == "dense_oracle.commutant_dimension":
            if s[VALUE] is not None and math.isfinite(s[VALUE]):
                gaps.append(s[VALUE])
        elif s[VALUE] is not None:
            value[name] += s[VALUE]

    sim_bytes = (value["simulator._apply_gate_array"] + value["gradients._run_batch"]
                 + value["simulator._summed_pair_signs"])
    sim_s = sum(gate_s.values()) + own["gradients._run_batch"]
    labels_s = total["pauli_orbits.orbit_canonical_labels"]
    words = value["pauli_orbits.orbit_canonical_labels"]
    run_s = total["experiment.run_variance_experiment"]
    busy_s = total[Tracer.WORKER_ROOT]

    m: Dict[str, float] = {
        "cli.calls": count["cli.main"],
        "cli.self_s": own["cli.main"],
        "experiment.dataset_calls": count["experiment.generate_dataset"],
        "experiment.dataset_s": total["experiment.generate_dataset"],
        "experiment.chunks": count[Tracer.WORKER_ROOT],
        "experiment.worker_busy_s": busy_s,
        "experiment.worker_idle_frac": 1.0 - busy_s / (workers * run_s) if run_s else 0.0,
        "circuits.build_s": total["circuits.build_ansatz"],
    }
    for kind in ANSATZE:
        m[f"gradients.grad_s.{kind}"] = grad_s[kind]
    m.update({
        "gradients.grad_calls": count["experiment._loss_gradient_from_arrays"],
        "gradients.run_batch_calls": count["gradients._run_batch"],
        "simulator.run_batch_self_s": own["gradients._run_batch"],
    })
    for g in GATE_GROUPS:
        m[f"simulator.gate_s.{g}"] = gate_s[g]
    for g in GATE_GROUPS:
        m[f"simulator.gate_calls.{g}"] = gate_calls[g]
    m.update({
        "simulator.zz_fused_runs": count["simulator._summed_pair_signs"],
        "simulator.parity_s": total["gradients._parity_batch"],
        "simulator.bytes_computed_gb": sim_bytes / 1e9,
        "simulator.gbps_computed": sim_bytes / 1e9 / sim_s if sim_s else 0.0,
        "permutation_rep.labels_s": labels_s,
        "permutation_rep.words_scanned": int(words),
        "permutation_rep.words_per_s": words / labels_s if labels_s else 0.0,
        "pauli_orbits.basis_self_s": own["pauli_orbits.enumerate_invariant_basis"],
        "pauli_orbits.orbits_built": int(value["pauli_orbits.enumerate_invariant_basis"]),
        "dense_oracle.constraint_build_s": total["dense_oracle._constraint_matrix"],
        "dense_oracle.svd_s": total["dense_oracle.svd"],
        "dense_oracle.constraint_mb_computed": value["dense_oracle._constraint_matrix"] / 1e6,
        "dense_oracle.min_sv_gap": min(gaps) if gaps else 0.0,
        "combinatorics.dim_s": total["combinatorics.dim"],
        "combinatorics.dim_calls": count["combinatorics.dim"],
        "trace.spans": len(spans),
    })
    return m


# Metrics that are exact counts: they must repeat across traced runs of one seed.
COUNT_METRICS = (
    "cli.calls", "experiment.dataset_calls", "experiment.chunks",
    "gradients.grad_calls", "gradients.run_batch_calls",
    *(f"simulator.gate_calls.{g}" for g in GATE_GROUPS),
    "simulator.zz_fused_runs", "simulator.bytes_computed_gb",
    "permutation_rep.words_scanned", "pauli_orbits.orbits_built",
    "dense_oracle.constraint_mb_computed", "combinatorics.dim_calls", "trace.spans",
)

