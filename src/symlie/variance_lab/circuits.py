"""The three layered ansatz families compared in the variance experiment.

Per layer:

* permutation-symmetric: one shared RX angle on every qubit, one shared RY,
  one shared ZZ on every qubit pair (3 slots);
* cyclic-symmetric: shared RX, shared RY, shared ZZ on the distance-1 ring
  and shared ZZ on the distance-2 ring (4 slots; the distance-2 ring can be
  dropped to get the 3-slot variant);
* strongly entangling: an independent 3-angle rotation on each qubit
  (3n slots) followed by a directed CNOT ring whose offset alternates
  1, 2, 1, 2, ... across layers.

Parameters are never shared between layers.  Layer counts default to
whatever brings each family closest to the common budget of 6n slots.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Tuple

from .simulator import Circuit, Gate, GateKind

__all__ = ["AnsatzKind", "build_ansatz", "default_layer_count", "gate_count",
           "probe_slot", "ring_pairs", "all_pairs"]

TARGET_SLOTS_PER_QUBIT = 6  # the common slot budget that default layer counts aim at


class AnsatzKind(str, Enum):
    PERMUTATION = "permutation"
    CYCLIC = "cyclic"
    STRONGLY_ENTANGLING = "strongly-entangling"


def all_pairs(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def ring_pairs(n: int, distance: int) -> List[Tuple[int, int]]:
    """Unordered qubit pairs {i, i+distance mod n}, deduplicated.

    For n = 4 the distance-2 ring collapses to the perfect matching
    {0,2}, {1,3}; coincident pairs are emitted once.
    """
    seen = set()
    out = []
    for i in range(n):
        j = (i + distance) % n
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def default_layer_count(kind: AnsatzKind, n: int, cyclic_distance2: bool = True) -> int:
    """Layer count bringing the slot total closest to TARGET_SLOTS_PER_QUBIT*n;
    every layer has as many slots as the first one built."""
    per = build_ansatz(kind, n, 1, cyclic_distance2=cyclic_distance2).n_params
    return max(1, round(TARGET_SLOTS_PER_QUBIT * n / per))


def gate_count(kind: AnsatzKind, n: int, layers: int, cyclic_distance2: bool = True) -> int:
    """The number of gates `build_ansatz` makes for `layers` layers, counted
    from its first two: the layers repeat with period two (the CNOT ring's
    offset alternates), so the count is whole pairs plus one first layer."""
    first, pair = (len(build_ansatz(kind, n, count, cyclic_distance2=cyclic_distance2).gates)
                   for count in (1, 2))
    return layers // 2 * pair + layers % 2 * first


def build_ansatz(kind: AnsatzKind, n: int, layers: int, *,
                 cyclic_distance2: bool = True) -> Circuit:
    if n < 2:
        raise ValueError(f"ansatz needs n >= 2 qubits, got {n}")
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    kind = AnsatzKind(kind)
    gates: List[Gate] = []
    layer_starts = []
    slot = 0
    for layer in range(layers):
        layer_starts.append(slot)
        if kind is AnsatzKind.PERMUTATION:
            gates.extend(Gate(GateKind.RX, (q,), (slot,)) for q in range(n))
            gates.extend(Gate(GateKind.RY, (q,), (slot + 1,)) for q in range(n))
            gates.extend(Gate(GateKind.ZZ, pair, (slot + 2,)) for pair in all_pairs(n))
            slot += 3
        elif kind is AnsatzKind.CYCLIC:
            gates.extend(Gate(GateKind.RX, (q,), (slot,)) for q in range(n))
            gates.extend(Gate(GateKind.RY, (q,), (slot + 1,)) for q in range(n))
            gates.extend(Gate(GateKind.ZZ, pair, (slot + 2,)) for pair in ring_pairs(n, 1))
            slot += 3
            ring2 = ring_pairs(n, 2) if cyclic_distance2 else []
            if ring2:
                gates.extend(Gate(GateKind.ZZ, pair, (slot,)) for pair in ring2)
                slot += 1
        else:
            for q in range(n):
                gates.append(Gate(GateKind.ROT3, (q,), (slot + 3 * q, slot + 3 * q + 1,
                                                        slot + 3 * q + 2)))
            slot += 3 * n
            offset = 1 if layer % 2 == 0 else 2
            for control in range(n):
                target = (control + offset) % n
                if target != control:
                    gates.append(Gate(GateKind.CNOT, (control, target)))
    return Circuit(n_qubits=n, gates=tuple(gates), n_params=slot,
                   layer_starts=tuple(layer_starts))


def probe_slot(circuit: Circuit) -> int:
    """The representative slot whose gradient the experiment probes: the
    first slot of the middle (ceil(L/2)-th) layer."""
    if not circuit.layer_starts:
        raise ValueError("circuit carries no layer metadata")
    layers = len(circuit.layer_starts)
    return circuit.layer_starts[(layers + 1) // 2 - 1]
