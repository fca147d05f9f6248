"""Exact statevector simulation of the small gate set used by the experiment.

Conventions: qubit 0 is the most significant bit of the basis-state index
(Kronecker order), rotations are exp(-i*theta/2 * G) for a Pauli-word
generator G, and ZZ(theta) acts diagonally with phase exp(-i*theta/2) on
even-parity and exp(+i*theta/2) on odd-parity bit pairs.  All kernels accept
a batch of states as an array of shape (..., 2^n); the public StateVector
API wraps the single-state case.

Circuits run as fused steps (`Circuit.steps`), not gate by gate.  A maximal
run of single-qubit gates is one step: its gates multiply into one 2x2
matrix per qubit, and the qubits, grouped in blocks of `BLOCK_QUBITS`
counted from the least significant end, are applied one block at a time as
the block's Kronecker product (a block with a single gated qubit keeps the
2x2 kernel).  A maximal run of ZZ gates is one diagonal, a maximal run of
CNOT gates is one gather by the composed index permutation, and every CZ is
a step of its own.  Each step returns a new array, and its adjoint is the
per-qubit dagger, the conjugate phases or the inverse gather, so
`_run_batch` runs any stretch of steps forward or backward without touching
its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..indexing import hamming_weights

__all__ = [
    "GateKind",
    "Gate",
    "Circuit",
    "StateVector",
    "zero_state",
    "plus_state",
    "apply_gate",
    "run_circuit",
    "circuit_unitary",
    "graph_state",
    "expectation_parity",
]


class GateKind(str, Enum):
    RX = "RX"
    RY = "RY"
    RZ = "RZ"
    ZZ = "ZZ"
    CZ = "CZ"
    CNOT = "CNOT"
    H = "H"
    ROT3 = "ROT3"


_N_TARGETS = {
    GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1, GateKind.H: 1,
    GateKind.ROT3: 1, GateKind.ZZ: 2, GateKind.CZ: 2, GateKind.CNOT: 2,
}
_N_SLOTS = {
    GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1, GateKind.ZZ: 1,
    GateKind.ROT3: 3, GateKind.CZ: 0, GateKind.CNOT: 0, GateKind.H: 0,
}


@dataclass(frozen=True)
class Gate:
    """One gate application; parametrized kinds reference shared slots."""

    kind: GateKind
    targets: Tuple[int, ...]
    slots: Tuple[int, ...] = ()

    def __post_init__(self):
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"gate targets must be distinct: {self.targets}")
        if len(self.targets) != _N_TARGETS[self.kind]:
            raise ValueError(f"{self.kind.value} takes {_N_TARGETS[self.kind]} targets")
        if len(self.slots) != _N_SLOTS[self.kind]:
            raise ValueError(f"{self.kind.value} carries {_N_SLOTS[self.kind]} parameter slots")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over densely numbered shared-parameter slots.

    `layer_starts` records the first slot of each layer for probe selection;
    it is metadata and does not affect simulation.
    """

    n_qubits: int
    gates: Tuple[Gate, ...]
    n_params: int
    layer_starts: Tuple[int, ...] = ()

    def __post_init__(self):
        referenced = set()
        for g in self.gates:
            if any(t < 0 or t >= self.n_qubits for t in g.targets):
                raise ValueError(f"gate targets {g.targets} out of range for {self.n_qubits} qubits")
            referenced.update(g.slots)
        if referenced != set(range(self.n_params)):
            raise ValueError("parameter slots must be densely numbered and all referenced")

    def slot_occurrences(self, slot: int) -> Tuple[Tuple[int, int], ...]:
        """All (gate_index, position) pairs where the slot appears."""
        if slot < 0 or slot >= self.n_params:
            raise ValueError(f"slot {slot} out of range")
        return tuple((gi, k) for gi, g in enumerate(self.gates)
                     for k, s in enumerate(g.slots) if s == slot)

    @cached_property
    def steps(self) -> Tuple["Step", ...]:
        """The gate list cut into fused steps: maximal runs of single-qubit
        gates, maximal runs of ZZ gates, maximal runs of CNOT gates, and
        each CZ alone."""
        runs: list = []
        for gate in self.gates:
            kind = _LOCAL if len(gate.targets) == 1 else gate.kind
            if runs and kind == runs[-1][0] and kind is not GateKind.CZ:
                runs[-1][1].append(gate)
            else:
                runs.append((kind, [gate]))
        return tuple(Step(kind, tuple(gates), self.n_qubits) for kind, gates in runs)


_LOCAL = "1q"  # the kind of a step made of single-qubit gates

# qubits per Kronecker block of a single-qubit step: one matmul by a 16x16
# matrix reads and writes the batch once for four qubits
BLOCK_QUBITS = 4


def _rotations(gate: Gate) -> Tuple[Tuple[str, Optional[int]], ...]:
    """(axis, slot) of each rotation of a single-qubit gate in application
    order; the Hadamard is ("H", None)."""
    if gate.kind is GateKind.ROT3:
        return tuple(zip("ZYZ", gate.slots))
    if gate.kind is GateKind.H:
        return (("H", None),)
    return ((gate.kind.value[1], gate.slots[0]),)


class Step:
    """One fused step of a circuit (see the module docstring).

    `kind` is "1q", GateKind.ZZ, GateKind.CZ or GateKind.CNOT.
    """

    def __init__(self, kind, gates: Tuple[Gate, ...], n_qubits: int):
        self.kind, self.gates, self.n_qubits = kind, gates, n_qubits

    @cached_property
    def slots(self) -> frozenset:
        return frozenset(s for g in self.gates for s in g.slots)

    @cached_property
    def wires(self) -> Dict[int, Tuple[Tuple[str, Optional[int]], ...]]:
        """Per gated qubit, ascending: its rotations in application order."""
        wires: Dict[int, tuple] = {}
        for gate in self.gates:
            q = gate.targets[0]
            wires[q] = wires.get(q, ()) + _rotations(gate)
        return dict(sorted(wires.items()))

    @cached_property
    def blocks(self) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
        """(first qubit, width, gated qubits) of each block with a gated
        qubit, least significant first.

        Aligning blocks at the low end leaves the trailing axis of every
        block either 1 or a multiple of 2^BLOCK_QUBITS, where matmul stays
        fast; only the top block may be narrower."""
        out = []
        for stop in range(self.n_qubits, 0, -BLOCK_QUBITS):
            first = max(0, stop - BLOCK_QUBITS)
            gated = tuple(q for q in range(first, stop) if q in self.wires)
            if gated:
                out.append((first, stop - first, gated))
        return tuple(out)

    @cached_property
    def phase_groups(self) -> Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]:
        """(slot, pairs) of a ZZ step, slots in order of first use."""
        groups: Dict[int, tuple] = {}
        for gate in self.gates:
            groups[gate.slots[0]] = groups.get(gate.slots[0], ()) + (gate.targets,)
        return tuple(groups.items())

    @cached_property
    def gather(self) -> np.ndarray:
        """Indices of a CNOT step: `np.take(amps, gather, axis=-1)` applies
        its gates in order, since gathering by p and then by q is gathering
        by p[q]."""
        perm = _cnot_permutation(self.n_qubits, *self.gates[0].targets)
        for gate in self.gates[1:]:
            perm = perm[_cnot_permutation(self.n_qubits, *gate.targets)]
        return perm

    @cached_property
    def inverse_gather(self) -> np.ndarray:
        """Indices that undo `gather`; a run of CNOTs, unlike one CNOT, is
        in general not its own inverse."""
        inverse = np.empty_like(self.gather)
        inverse[self.gather] = np.arange(self.gather.size)
        return inverse


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude count must be 2^n_qubits")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(n: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n, amps)


def plus_state(n: int) -> StateVector:
    amps = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    return StateVector(n, amps)


@lru_cache(maxsize=None)
def _bit(n: int, q: int) -> np.ndarray:
    return ((np.arange(1 << n) >> (n - 1 - q)) & 1).astype(np.int8)


@lru_cache(maxsize=None)
def _pair_parity(n: int, i: int, j: int) -> np.ndarray:
    return _bit(n, i) ^ _bit(n, j)


@lru_cache(maxsize=None)
def _cnot_permutation(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n)
    flip = _bit(n, control).astype(np.int64) << (n - 1 - target)
    return idx ^ flip


@lru_cache(maxsize=None)
def _parity_signs(n: int) -> np.ndarray:
    return np.where(hamming_weights(n) % 2, -1.0, 1.0)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]],
                    dtype=np.complex128)


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_ROTATION = {"X": _rx, "Y": _ry, "Z": _rz}
_IDENTITY = np.eye(2, dtype=np.complex128)


def _factor(axis: str, slot: Optional[int], params: Sequence[float]) -> np.ndarray:
    """The 2x2 matrix of one rotation, its angle read from `params` by slot;
    the Hadamard has no slot."""
    return _HADAMARD if slot is None else _ROTATION[axis](params[slot])


def _wire_matrix(rotations: Sequence[Tuple[str, Optional[int]]],
                 params: Sequence[float]) -> np.ndarray:
    """Product of one qubit's rotations, the first applied rightmost."""
    u = _IDENTITY
    for axis, slot in rotations:
        u = _factor(axis, slot, params) @ u
    return u


def _kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, None, :, None] * f[None, :, None, :]).reshape(
            out.shape[0] * 2, out.shape[1] * 2)
    return out


def _apply_1q(amps: np.ndarray, u: np.ndarray, q: int, n: int) -> np.ndarray:
    # scalar combination of the two sub-block views; uniform cost in q,
    # unlike batched 2x2 matmuls which crawl when the trailing block is tiny.
    # The output buffer is allocated in the blocked shape so the writes below
    # always go through views, whatever the input layout was.
    lo = 1 << (n - 1 - q)
    x = amps.reshape(-1, 2, lo)
    x0, x1 = x[:, 0, :], x[:, 1, :]
    out = np.empty(x.shape, dtype=np.complex128)
    if u[0, 1] == 0 and u[1, 0] == 0:
        np.multiply(x0, u[0, 0], out=out[:, 0, :])
        np.multiply(x1, u[1, 1], out=out[:, 1, :])
    else:
        out[:, 0, :] = u[0, 0] * x0 + u[0, 1] * x1
        out[:, 1, :] = u[1, 0] * x0 + u[1, 1] * x1
    return out.reshape(amps.shape)


def _apply_gate_array(amps: np.ndarray, gate: Gate, angles: Sequence[float],
                      n: int) -> np.ndarray:
    kind = gate.kind
    if kind is GateKind.RX:
        return _apply_1q(amps, _rx(angles[0]), gate.targets[0], n)
    if kind is GateKind.RY:
        return _apply_1q(amps, _ry(angles[0]), gate.targets[0], n)
    if kind is GateKind.RZ:
        return _apply_1q(amps, _rz(angles[0]), gate.targets[0], n)
    if kind is GateKind.H:
        return _apply_1q(amps, _HADAMARD, gate.targets[0], n)
    if kind is GateKind.ROT3:
        # RZ-RY-RZ Euler rotation; slots are in application order
        u = _rz(angles[2]) @ _ry(angles[1]) @ _rz(angles[0])
        return _apply_1q(amps, u, gate.targets[0], n)
    if kind is GateKind.ZZ:
        i, j = gate.targets
        parity = _pair_parity(n, i, j)
        half = 0.5j * angles[0]
        phases = np.where(parity, np.exp(half), np.exp(-half))
        return amps * phases
    if kind is GateKind.CZ:
        i, j = gate.targets
        both = (_bit(n, i) & _bit(n, j)).astype(bool)
        out = amps.copy()
        out[..., both] *= -1.0
        return out
    if kind is GateKind.CNOT:
        control, target = gate.targets
        perm = _cnot_permutation(n, control, target)
        # out[x] = in[x with target bit flipped when control set]; the map is
        # an involution so gathering by it applies the gate.
        return np.take(amps, perm, axis=-1)
    raise ValueError(f"unhandled gate kind {kind}")


@lru_cache(maxsize=None)
def _summed_pair_signs(n: int, pairs: Tuple[Tuple[int, int], ...]) -> np.ndarray:
    total = np.zeros(1 << n, dtype=np.int16)
    for i, j in pairs:
        total += 1 - 2 * _pair_parity(n, i, j).astype(np.int16)
    return total


def _apply_local(amps: np.ndarray, step: Step, params: Sequence[float], n: int,
                 adjoint: bool) -> np.ndarray:
    wires = step.wires
    for first, width, gated in step.blocks:
        mats = {}
        for q in gated:
            u = _wire_matrix(wires[q], params)
            mats[q] = u.conj().T if adjoint else u
        if len(gated) == 1:
            amps = _apply_1q(amps, mats[gated[0]], gated[0], n)
            continue
        k = _kron([mats.get(q, _IDENTITY) for q in range(first, first + width)])
        lo = 1 << (n - first - width)
        if lo == 1:
            # one (rows x 2^w) @ (2^w x 2^w) product instead of a stack of
            # matrix-vector products
            out = amps.reshape(-1, 1 << width) @ k.T
        else:
            out = np.matmul(k, amps.reshape(-1, 1 << width, lo))
        amps = out.reshape(amps.shape)
    return amps


def _apply_step(amps: np.ndarray, step: Step, params: Sequence[float], n: int,
                adjoint: bool = False) -> np.ndarray:
    if step.kind == _LOCAL:
        return _apply_local(amps, step, params, n, adjoint)
    if step.kind is GateKind.ZZ:
        exponent = sum((-0.5j * params[slot]) * _summed_pair_signs(n, pairs)
                       for slot, pairs in step.phase_groups)
        phases = np.exp(exponent)
        return amps * (phases.conj() if adjoint else phases)
    if step.kind is GateKind.CNOT:
        return np.take(amps, step.inverse_gather if adjoint else step.gather, axis=-1)
    # a CZ is its own inverse
    return _apply_gate_array(amps, step.gates[0], (), n)


def _run_batch(circuit: Circuit, params: Sequence[float], amps: np.ndarray,
               start: int = 0, stop: Optional[int] = None,
               adjoint: bool = False) -> np.ndarray:
    """Apply steps [start, stop) of `circuit.steps` to a batch of states
    (last axis is the state), or with `adjoint` undo them, last step first.

    Returns a new array; `amps` is never written.
    """
    if len(params) != circuit.n_params:
        raise ValueError(f"expected {circuit.n_params} parameters, got {len(params)}")
    n = circuit.n_qubits
    work = np.asarray(amps, dtype=np.complex128)
    steps = circuit.steps[start:stop]
    for step in (reversed(steps) if adjoint else steps):
        work = _apply_step(work, step, params, n, adjoint)
    return work.copy() if work is amps else work


def apply_gate(state: StateVector, gate: Gate, params: Sequence[float] = ()) -> StateVector:
    """Apply one gate, reading its angles from `params` by slot id."""
    angles = [params[s] for s in gate.slots]
    out = _apply_gate_array(state.amplitudes, gate, angles, state.n_qubits)
    result = StateVector(state.n_qubits, out)
    if abs(result.norm() - state.norm()) > 1e-10:
        raise AssertionError(f"gate {gate.kind.value} did not preserve the norm")
    return result


def run_circuit(circuit: Circuit, params: Sequence[float],
                state: Optional[StateVector] = None) -> StateVector:
    if state is None:
        state = zero_state(circuit.n_qubits)
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("state and circuit qubit counts differ")
    return StateVector(circuit.n_qubits, _run_batch(circuit, params, state.amplitudes))


def circuit_unitary(circuit: Circuit, params: Sequence[float]) -> np.ndarray:
    """Dense unitary of the whole circuit (for verification at small n)."""
    dim = 1 << circuit.n_qubits
    basis = np.eye(dim, dtype=np.complex128)
    columns = _run_batch(circuit, params, basis)  # row b is the image of e_b
    return columns.T


def graph_state(edges: Iterable[Tuple[int, int]], n: int) -> StateVector:
    """|G> = prod_{(a,b) in E} CZ_{a,b} |+>^n for a simple graph on n vertices."""
    edge_list = [tuple(sorted(e)) for e in edges]
    if len(set(edge_list)) != len(edge_list):
        raise ValueError("duplicate edges")
    for a, b in edge_list:
        if a == b or a < 0 or b >= n:
            raise ValueError(f"bad edge ({a}, {b}) for {n} vertices")
    odd = np.zeros(1 << n, dtype=np.int8)
    for a, b in edge_list:
        odd ^= _bit(n, a) & _bit(n, b)
    # each CZ flips the sign where both its bits are set; the flips compose
    # to one sign per basis state
    return StateVector(n, plus_state(n).amplitudes * np.where(odd, -1.0, 1.0))


def _parity_batch(amps: np.ndarray, n: int) -> np.ndarray:
    return (np.abs(amps) ** 2) @ _parity_signs(n)


def expectation_parity(state: StateVector) -> float:
    """<Z^(x)n>: sum of (-1)^weight(b) |amplitude_b|^2, always in [-1, 1]."""
    return float(_parity_batch(state.amplitudes, state.n_qubits))
