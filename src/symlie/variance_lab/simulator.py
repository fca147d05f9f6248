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
one matmul by the block's Kronecker product, identities on its ungated
qubits, so a block of width one is a 2x2 matmul; the same kernel applies any
product of per-qubit 2x2 matrices, which the gradient uses for the parity's
image.  A maximal run of ZZ gates is one diagonal, and a maximal run of
CNOT gates is one gather by the composed index permutation, its gates' XOR
flips applied in place to one index array; no per-gate or per-qubit table
is built or kept.  A step's adjoint is the per-qubit dagger, the conjugate
phases or the inverse gather, so `_run_batch` runs any stretch of steps
forward or backward.  Every kernel pass writes into a batch taken from
a `Workspace`, a short list of free batches, and a stretch of steps gives
each intermediate batch back as soon as the next step has read it; the
input is never written.  A caller that passes no workspace gets a new array,
and one that keeps a workspace over many stretches (the gradient's sweeps)
reuses its batches instead of allocating one per pass.  Likewise each
step's Kronecker blocks or ZZ phases are built once per dict of operators
(`_step_operator`), which a caller that runs several stretches at the same
parameters (the gradient's sweeps and row chunks) keeps over all of them.
`apply_gate` runs a one-gate circuit, so every gate is applied by the same
step kernels.  Graph states are not built by CZ gates: one doubling sweep
over the vertex subsets (`subset_codes`) gives each amplitude's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..indexing import CHUNK_ENTRIES, hamming_weights

__all__ = [
    "GateKind",
    "Gate",
    "Circuit",
    "StateVector",
    "zero_state",
    "apply_gate",
    "run_circuit",
    "circuit_unitary",
    "graph_state",
    "graph_amplitudes",
    "expectation_parity",
]


class GateKind(str, Enum):
    RX = "RX"
    RY = "RY"
    RZ = "RZ"
    ZZ = "ZZ"
    CNOT = "CNOT"
    ROT3 = "ROT3"


_N_TARGETS = {
    GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1,
    GateKind.ROT3: 1, GateKind.ZZ: 2, GateKind.CNOT: 2,
}
_N_SLOTS = {
    GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1, GateKind.ZZ: 1,
    GateKind.ROT3: 3, GateKind.CNOT: 0,
}


@dataclass(frozen=True)
class Gate:
    """One gate application; parametrized kinds reference shared slots."""

    kind: GateKind
    targets: Tuple[int, ...]
    slots: Tuple[int, ...] = ()

    def __post_init__(self):
        # an unknown kind raises ValueError here, not when the gate is run;
        # circuits build thousands of gates, so the common cases (a GateKind
        # and one or two targets) skip the coercion and the set
        if type(self.kind) is not GateKind:
            object.__setattr__(self, "kind", GateKind(self.kind))
        targets = self.targets
        if len(targets) == 2:
            repeated = targets[0] == targets[1]
        else:
            repeated = len(targets) > 2 and len(set(targets)) != len(targets)
        if repeated:
            raise ValueError(f"gate targets must be distinct: {targets}")
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

    @cached_property
    def steps(self) -> Tuple["Step", ...]:
        """The gate list cut into fused steps: each maximal run of one kind,
        all single-qubit gates counting as one kind."""
        runs: list = []
        for gate in self.gates:
            kind = _LOCAL if len(gate.targets) == 1 else gate.kind
            if runs and kind == runs[-1][0]:
                runs[-1][1].append(gate)
            else:
                runs.append((kind, [gate]))
        return tuple(Step(kind, tuple(gates), self.n_qubits) for kind, gates in runs)


_LOCAL = "1q"  # the kind of a step made of single-qubit gates

# qubits per Kronecker block of a single-qubit step: one matmul by a 16x16
# matrix reads and writes the batch once for four qubits
BLOCK_QUBITS = 4


def _rotations(gate: Gate) -> Tuple[Tuple[str, int], ...]:
    """(axis, slot) of each rotation of a single-qubit gate in application
    order."""
    if gate.kind is GateKind.ROT3:
        return tuple(zip("ZYZ", gate.slots))
    return ((gate.kind.value[1], gate.slots[0]),)


class Step:
    """One fused step of a circuit (see the module docstring).

    `kind` is "1q", GateKind.ZZ or GateKind.CNOT.
    """

    def __init__(self, kind, gates: Tuple[Gate, ...], n_qubits: int):
        self.kind, self.gates, self.n_qubits = kind, gates, n_qubits

    @cached_property
    def slots(self) -> frozenset:
        return frozenset(s for g in self.gates for s in g.slots)

    @cached_property
    def wires(self) -> Dict[int, Tuple[Tuple[str, int], ...]]:
        """Per gated qubit, ascending: its rotations in application order."""
        wires: Dict[int, tuple] = {}
        for gate in self.gates:
            q = gate.targets[0]
            wires[q] = wires.get(q, ()) + _rotations(gate)
        return dict(sorted(wires.items()))

    @cached_property
    def blocks(self) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
        """(first qubit, width, gated qubits) of each block with a gated
        qubit, least significant first (`_blocks`)."""
        return _blocks(self.n_qubits, frozenset(self.wires))

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
        its gates in order.  One CNOT gathers by the index with its target
        bit flipped where its control bit is set, and gathering by p and
        then by q is gathering by p[q], so the flips compose on one index
        array, last gate first."""
        n = self.n_qubits
        index = np.arange(1 << n)
        for control, target in reversed([gate.targets for gate in self.gates]):
            index ^= ((index >> (n - 1 - control)) & 1) << (n - 1 - target)
        return index

    @cached_property
    def inverse_gather(self) -> np.ndarray:
        """Indices that undo `gather`, the permutation's inverse; a run of
        CNOTs, unlike one CNOT, is in general not its own inverse."""
        return np.argsort(self.gather)


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


_ROTATION = {"X": _rx, "Y": _ry, "Z": _rz}
_IDENTITY = np.eye(2, dtype=np.complex128)


def _factor(axis: str, slot: int, params: Sequence[float]) -> np.ndarray:
    """The 2x2 matrix of one rotation, its angle read from `params` by slot."""
    return _ROTATION[axis](params[slot])


def _wire_matrix(rotations: Sequence[Tuple[str, int]],
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


class Workspace:
    """Free complex batches for kernel passes to write into.

    `take` hands out a free batch of the requested shape, else the leading
    rows of a free batch with more rows of the same length (the short last
    row chunk of a gradient), or a new batch when none fits; `give` returns
    a batch whose contents are no longer needed, a batch of leading rows by
    the batch it was cut from.  A batch is either free or held by one
    caller, never both."""

    def __init__(self):
        self.free: list = []

    def take(self, shape: Tuple[int, ...]) -> np.ndarray:
        for i, batch in enumerate(self.free):
            if batch.shape == shape:
                return self.free.pop(i)
        for i, batch in enumerate(self.free):
            if len(shape) > 1 and batch.shape[1:] == shape[1:] and batch.shape[0] > shape[0]:
                return self.free.pop(i)[:shape[0]]
        return np.empty(shape, dtype=np.complex128)

    def give(self, batch: np.ndarray) -> None:
        self.free.append(batch if batch.base is None else batch.base)


@lru_cache(maxsize=None)
def _summed_pair_signs(n: int, pairs: Tuple[Tuple[int, int], ...]) -> np.ndarray:
    index = np.arange(1 << n)
    total = np.zeros(1 << n, dtype=np.int16)
    for i, j in pairs:
        odd = ((index >> (n - 1 - i)) ^ (index >> (n - 1 - j))) & 1
        total += 1 - 2 * odd.astype(np.int16)
    return total


@lru_cache(maxsize=None)
def _blocks(n: int, qubits: frozenset) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
    """(first qubit, width, member qubits) of each block of `BLOCK_QUBITS`
    qubits holding one of `qubits`, least significant first.

    Aligning blocks at the low end leaves the trailing axis of every block
    either 1 or a multiple of 2^BLOCK_QUBITS, where matmul stays fast; only
    the top block may be narrower."""
    out = []
    for stop in range(n, 0, -BLOCK_QUBITS):
        first = max(0, stop - BLOCK_QUBITS)
        gated = tuple(q for q in range(first, stop) if q in qubits)
        if gated:
            out.append((first, stop - first, gated))
    return tuple(out)


def _local_blocks(mats: Dict[int, np.ndarray], n: int
                  ) -> Tuple[Tuple[int, int, np.ndarray], ...]:
    """(first qubit, width, Kronecker product) of each block (`_blocks`)
    holding a qubit of `mats`, one 2x2 matrix per qubit: the product of
    those on the block's qubits, identities on the others.  Blocks whose
    qubits hold the same matrix objects share one product."""
    products: Dict[tuple, np.ndarray] = {}
    out = []
    for first, width, _ in _blocks(n, frozenset(mats)):
        factors = [mats.get(q, _IDENTITY) for q in range(first, first + width)]
        key = tuple(map(id, factors))
        if key not in products:
            products[key] = _kron(factors)
        out.append((first, width, products[key]))
    return tuple(out)


def _apply_local(amps: np.ndarray, blocks: Sequence[Tuple[int, int, np.ndarray]], n: int,
                 workspace: Workspace, consume: bool = False) -> np.ndarray:
    """Apply a product of one 2x2 matrix per qubit, given as its Kronecker
    blocks (`_local_blocks`), one block at a time.

    Each block writes into a batch taken from `workspace` and gives the
    batch it read back to it, `amps` only with `consume`; `amps` is never
    written.  Returns the last block's batch."""
    work = amps
    for first, width, k in blocks:
        out = workspace.take(amps.shape)
        lo = 1 << (n - first - width)
        if lo == 1:
            # one (rows x 2^w) @ (2^w x 2^w) product instead of a stack of
            # matrix-vector products
            np.matmul(work.reshape(-1, 1 << width), k.T,
                      out=out.reshape(-1, 1 << width))
        else:
            np.matmul(k, work.reshape(-1, 1 << width, lo),
                      out=out.reshape(-1, 1 << width, lo))
        if consume or work is not amps:
            workspace.give(work)
        work = out
    return work


def _step_operator(step: Step, params: Sequence[float], adjoint: bool, operators: dict):
    """The Kronecker blocks of a single-qubit step, or of its adjoint, or
    the phases of a ZZ step (whose adjoint conjugates them), at `params`.

    `operators` is a dict its caller keeps for one parameter vector: each
    operator is built on first use and kept there under (step, adjoint), so
    a stretch of steps run again reuses it."""
    key = (step, adjoint)
    if key in operators:
        return operators[key]
    if step.kind == _LOCAL and adjoint:
        # the daggered blocks of the forward operator, each distinct one once
        # and laid out as the forward one was built
        forward = _step_operator(step, params, False, operators)
        daggers = {id(k): np.ascontiguousarray(k.conj().T) for _, _, k in forward}
        operator = tuple((first, width, daggers[id(k)]) for first, width, k in forward)
    elif step.kind == _LOCAL:
        # one 2x2 matrix per distinct rotation tuple, so that wires with the
        # same rotations share it and their blocks share one product
        mats = {rotations: _wire_matrix(rotations, params)
                for rotations in set(step.wires.values())}
        operator = _local_blocks({q: mats[rotations] for q, rotations in step.wires.items()},
                                 step.n_qubits)
    else:
        operator = np.exp(sum((-0.5j * params[slot]) * _summed_pair_signs(step.n_qubits, pairs)
                              for slot, pairs in step.phase_groups))
    operators[key] = operator
    return operator


def _apply_step(amps: np.ndarray, step: Step, params: Sequence[float], n: int,
                workspace: Workspace, operators: dict, adjoint: bool = False,
                consume: bool = False) -> np.ndarray:
    """Apply one step, or its adjoint, into a batch taken from `workspace`;
    with `consume`, `amps` is given back to it once read.  `operators` is
    passed to `_step_operator`."""
    if step.kind == _LOCAL:
        return _apply_local(amps, _step_operator(step, params, adjoint, operators), n,
                            workspace, consume)
    out = workspace.take(amps.shape)
    if step.kind is GateKind.ZZ:
        phases = _step_operator(step, params, False, operators)
        if adjoint:
            # the conjugate phases go into the output's last row, which is
            # multiplied last, rather than into a new array per pass
            src, dst = amps.reshape(-1, 1 << n), out.reshape(-1, 1 << n)
            conj = np.conjugate(phases, out=dst[-1])
            np.multiply(src[:-1], conj, out=dst[:-1])
            np.multiply(src[-1], conj, out=conj)
        else:
            np.multiply(amps, phases, out=out)
    elif step.kind is GateKind.CNOT:
        # mode="clip" gathers straight into `out`; the default "raise"
        # gathers into a buffer first (the indices are always in range)
        np.take(amps, step.inverse_gather if adjoint else step.gather, axis=-1,
                out=out, mode="clip")
    else:
        raise ValueError(f"unhandled step kind {step.kind}")
    if consume:
        workspace.give(amps)
    return out


def _check_arguments(circuit: Circuit, params: Sequence[float],
                     slots: Sequence[int] = ()) -> None:
    """Raise ValueError for a parameter vector of the wrong length or a slot
    out of range."""
    if len(params) != circuit.n_params:
        raise ValueError(f"expected {circuit.n_params} parameters, got {len(params)}")
    for slot in slots:
        if slot < 0 or slot >= circuit.n_params:
            raise ValueError(f"slot {slot} out of range")


def _run_batch(circuit: Circuit, params: Sequence[float], amps: np.ndarray,
               start: int = 0, stop: Optional[int] = None,
               adjoint: bool = False, workspace: Optional[Workspace] = None,
               operators: Optional[dict] = None) -> np.ndarray:
    """Apply steps [start, stop) of `circuit.steps` to a batch of states
    (last axis is the state), or with `adjoint` undo them, last step first.
    A caller that runs several stretches at the same `params` may keep the
    steps' operators in one `operators` dict (`_step_operator`); without
    one a new dict serves this stretch.

    Every step writes into a batch taken from `workspace` and gives the
    batch it read back to it.  `amps` belongs to the caller: it is never
    written or given back.  Returns a batch taken from `workspace`, which
    the caller holds until it gives it back; without a workspace a
    throwaway one is used, so the result is a new array.

    `params` is not checked here: the public entry points and the
    gradient check each vector once (`_check_arguments`), not once per
    stretch.
    """
    if workspace is None:
        workspace = Workspace()
    if operators is None:
        operators = {}
    n = circuit.n_qubits
    amps = work = np.asarray(amps, dtype=np.complex128)
    steps = circuit.steps[start:stop]
    for step in (reversed(steps) if adjoint else steps):
        work = _apply_step(work, step, params, n, workspace, operators, adjoint,
                           consume=work is not amps)
    if work is amps:
        work = workspace.take(amps.shape)
        np.copyto(work, amps)
    return work


def _apply_gate_array(amps: np.ndarray, gate: Gate, angles: Sequence[float],
                      n: int) -> np.ndarray:
    """Apply one gate, its angles in slot order, as a one-gate circuit."""
    k = len(gate.slots)
    circuit = Circuit(n, (Gate(gate.kind, gate.targets, tuple(range(k))),), k)
    return _run_batch(circuit, angles, amps)


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
    _check_arguments(circuit, params)
    return StateVector(circuit.n_qubits, _run_batch(circuit, params, state.amplitudes))


def circuit_unitary(circuit: Circuit, params: Sequence[float]) -> np.ndarray:
    """Dense unitary of the whole circuit (for verification at small n)."""
    _check_arguments(circuit, params)
    dim = 1 << circuit.n_qubits
    basis = np.eye(dim, dtype=np.complex128)
    columns = _run_batch(circuit, params, basis)  # row b is the image of e_b
    return columns.T


def subset_codes(graphs: np.ndarray, n: int):
    """Sweep every vertex subset S of every graph, about CHUNK_ENTRIES at a time.

    `graphs` holds a row of neighbour masks per graph: entry v is N(v) with
    vertex u at bit n - 1 - u, the bit of qubit u in a basis index, and S is
    numbered the same way.  Yields (rows, start, codes): codes[r, i] is the
    code of subset start + i of graph rows[r], its low n bits the mask
    Z(S) = XOR of N(v) over v in S and bit n the edge parity |E(S)| mod 2.

    The sweep doubles: vertex v joins each subset S found so far, adding
    N(v) to Z(S) and |N(v) & S| edges, which is bit v of Z(S).  A graph of
    more than CHUNK_ENTRIES subsets is swept in pieces, each starting from
    the code of its prefix on the leading vertices."""
    dtype = np.uint16 if n < 16 else np.uint32
    masks = graphs.astype(dtype)
    low = min(n, CHUNK_ENTRIES.bit_length() - 1)
    step = max(1, CHUNK_ENTRIES >> n)
    for lo in range(0, len(masks), step):
        block = masks[lo:lo + step]
        rows = slice(lo, lo + len(block))
        prefixes = _sweep(np.zeros(len(block), dtype), block, range(n - 1 - low, -1, -1), n)
        for head in range(prefixes.shape[1]):
            yield rows, head << low, _sweep(prefixes[:, head], block,
                                            range(n - 1, n - 1 - low, -1), n)


def _sweep(first: np.ndarray, masks: np.ndarray, vertices: Iterable[int], n: int) -> np.ndarray:
    """Codes (`subset_codes`) of S + T for each subset T of `vertices`, the
    first vertex the lowest bit of T's position, given the codes `first`
    of one subset S per row that holds none of them."""
    vertices = list(vertices)
    codes = np.empty((len(first), 1 << len(vertices)), dtype=first.dtype)
    codes[:, 0] = first
    for t, v in enumerate(vertices):
        old, new = codes[:, :1 << t], codes[:, 1 << t:2 << t]
        np.right_shift(old, n - 1 - v, out=new)
        new &= 1
        new <<= n
        new ^= old
        new ^= masks[:, v, None]
    return codes


def graph_amplitudes(graphs: np.ndarray, n: int) -> np.ndarray:
    """The graph states of rows of neighbour masks (`subset_codes`), one
    row each: 2^(-n/2) (-1)^|E(S)| on the basis state whose set bits are S."""
    amps = np.zeros((len(graphs), 1 << n), dtype=np.complex128)
    scale = 2.0 ** (-n / 2)
    for rows, start, codes in subset_codes(graphs, n):
        codes >>= n
        real = amps[rows, start:start + codes.shape[1]].real
        # scale - 2 scale |E(S)| mod 2, exactly +-scale
        np.multiply(codes, -2 * scale, out=real)
        real += scale
    return amps


def graph_state(edges: Iterable[Tuple[int, int]], n: int) -> StateVector:
    """|G> = prod_{(a,b) in E} CZ_{a,b} |+>^n for a simple graph on n vertices,
    built by the dataset's subset sweep (`graph_amplitudes`)."""
    edge_list = [tuple(sorted(e)) for e in edges]
    if len(set(edge_list)) != len(edge_list):
        raise ValueError("duplicate edges")
    masks = np.zeros((1, n), dtype=np.int64)
    for a, b in edge_list:
        if a == b or a < 0 or b >= n:
            raise ValueError(f"bad edge ({a}, {b}) for {n} vertices")
        masks[0, a] |= 1 << (n - 1 - b)
        masks[0, b] |= 1 << (n - 1 - a)
    return StateVector(n, graph_amplitudes(masks, n)[0])


def _parity_batch(amps: np.ndarray, n: int) -> np.ndarray:
    return (np.abs(amps) ** 2) @ _parity_signs(n)


def expectation_parity(state: StateVector) -> float:
    """<Z^(x)n>: sum of (-1)^weight(b) |amplitude_b|^2, always in [-1, 1]."""
    return float(_parity_batch(state.amplitudes, state.n_qubits))
