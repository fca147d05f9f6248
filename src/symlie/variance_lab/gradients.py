"""Loss and gradients for the parity-observable classifier.

The prediction for a state is p = <Z^(x)n> after the ansatz; the loss is
the mean squared error against labels.  Gradients come from adjoint
differentiation (Jones and Gacon, arXiv:2009.02823): every parametrized
gate here is exp(-i*theta/2 * G), so an occurrence of a slot contributes
dp/dtheta = Im<mu|G|psi>, where psi is the state just after the gate and
mu the costate U_after^dagger P U_after psi with the suffix U_after of the
circuit.  The parity needs no pass over the batch through the circuit's
unprobed tail: CNOT runs map the Z-string to a Z-string, ZZ runs commute
with it, and a single-qubit step V before them turns it into the product
operator A = V^dagger Z_S V, one 2x2 matrix per qubit.  The forward
pass keeps psi at the output of each probed step, up to
`MAX_STORED_STATE_BYTES` per row chunk (below), and stops at the boundary
b before that tail, where mu_b = A psi_b and p = <psi_b|A|psi_b>; the
reverse sweep then undoes the fused steps before b on mu alone and
collects every occurrence of every probed slot (Griewank and Walther's stored checkpoints, one per probed
step).  Only a probed step whose state did not fit is reached by sweeping
psi back from psi_b as well, and that second batch is given back once no
such step is left.

A row's prediction and prediction gradient depend on no other row, so
the passes run over a row chunk of the dataset at a time, at most
max(1, CHUNK_ENTRIES >> n) rows: a 50-row dataset is one row chunk up to
n = 12, and from n = 13 on a row chunk's batch holds at most 2^18
amplitudes (4 MB).  The rows come from a function that gives the
amplitudes of a row range (`_loss_gradients`), so no batch of the whole
dataset's states need exist: the experiment builds each row chunk's graph
states when they are asked for and drops them after the row chunk, and
every parameter vector of a tile is swept over one row chunk before the
next is asked for.  A vector's step operators and per-row results are
kept from its first row chunk to its last, so a tile holds as many
vectors as keep them within one row chunk's batch (`_tile_samples`):
every vector when the dataset is one row chunk or the circuit has no ZZ
step, and one cyclic vector from n = 13 on, where each ZZ step's phases
take 16 * 2^n bytes.  Every batch a row chunk writes (stored states, psi,
mu, and the overlaps' conjugate and products) is taken from one
`simulator.Workspace` and given back as soon as nothing reads it; a short
last row chunk takes the leading rows of the others' batches.  In default
mode the workspace peaks at four row-chunk batches beside the row chunk's
states: the stored state, psi_b or mu, and the two batches a kernel pass
reads and writes.  A caller that keeps the workspace over many gradients,
as the experiment does over a chunk of samples, allocates no new batch
for them after the first gradient.  Each step's Kronecker blocks or ZZ
phases are built once per parameter vector, for the forward pass, the
reverse sweep and every row chunk.

The sweep measures only at step boundaries, so one pass serves any set of
probed slots.  A ZZ generator is diagonal and commutes
with its whole step.  Inside a single-qubit step, the generator G of a
rotation on qubit q is conjugated by the factors V that follow it on q:
at the step's output the occurrence contributes Im<mu|V G V^dagger|psi>,
which is assembled from the four overlaps <mu_a|psi_b> of the sub-blocks
with qubit q set to a and b, read off one overlap matrix per Kronecker
block.  A central finite difference of the loss serves as the independent
cross-check.  The experiment differentiates the permutation ansatz on its
spin blocks instead (`spin_blocks`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..indexing import CHUNK_ENTRIES, MAX_STORED_STATE_BYTES, SIGMA
from .simulator import (_LOCAL, Circuit, GateKind, StateVector, Step, Workspace,
                        _apply_local, _check_arguments, _factor, _local_blocks,
                        _parity_batch, _run_batch, _summed_pair_signs, _wire_matrix)

__all__ = ["mse_loss", "predictions", "gradient", "gradient_finite_difference",
           "stack_dataset"]

Dataset = Sequence[Tuple[StateVector, float]]


def stack_dataset(dataset: Dataset) -> Tuple[np.ndarray, np.ndarray]:
    """Batch a list of (state, label) pairs into (amplitudes, labels) arrays."""
    if not dataset:
        raise ValueError("dataset is empty")
    amps = np.stack([sv.amplitudes for sv, _ in dataset])
    labels = np.array([label for _, label in dataset], dtype=np.float64)
    return amps, labels


def _batch_predictions(circuit: Circuit, params: Sequence[float],
                       amps: np.ndarray) -> np.ndarray:
    out = _run_batch(circuit, params, amps)
    return _parity_batch(out, circuit.n_qubits)


def predictions(circuit: Circuit, params: Sequence[float], dataset: Dataset) -> np.ndarray:
    amps, _ = stack_dataset(dataset)
    return _batch_predictions(circuit, params, amps)


def mse_loss(circuit: Circuit, params: Sequence[float], dataset: Dataset) -> float:
    """Mean over the dataset of (prediction - label)^2; bounded by [0, 4]
    for labels in {-1, +1}."""
    amps, labels = stack_dataset(dataset)
    preds = _batch_predictions(circuit, params, amps)
    return float(np.mean((preds - labels) ** 2))


_PAULI = dict(zip("XYZ", SIGMA[1:]))
# step kinds that keep a Z-string diagonal: CNOT runs permute it, ZZ runs
# commute with it
_DIAGONAL_ON_Z_STRINGS = (GateKind.CNOT, GateKind.ZZ)


def _conjugated_generators(rotations: Sequence[Tuple[str, int]],
                           params: Sequence[float],
                           probed: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
    """Per probed slot on one qubit of a step: the sum of V G V^dagger over
    its rotations, V the product of the rotations that follow on the qubit."""
    v = np.eye(2, dtype=np.complex128)
    out: Dict[int, np.ndarray] = {}
    for axis, slot in reversed(rotations):
        if slot in probed:
            g = v @ _PAULI[axis] @ v.conj().T
            out[slot] = out[slot] + g if slot in out else g
        v = v @ _factor(axis, slot, params)
    return out


def _block_overlaps(mu: np.ndarray, psi: np.ndarray, first: int, width: int,
                    n: int, workspace: Workspace) -> np.ndarray:
    """D[b, x, y] = <mu_x|psi_y> for row b, x and y the bits of the block's
    qubits; one matrix product over the batch, shaped as the simulator
    applies the block.  mu's conjugate and the per-slice products go into
    workspace batches."""
    dim, lo = 1 << width, 1 << (n - first - width)
    rows = mu.shape[0]
    conj = np.conjugate(mu, out=workspace.take(mu.shape))
    m = conj.reshape(rows, -1, dim, lo)
    p = psi.reshape(m.shape)
    if lo == 1:
        d = np.matmul(m[..., 0].swapaxes(1, 2), p[..., 0])
    else:
        # lo is a multiple of 2^BLOCK_QUBITS (`_blocks`), at least dim, so
        # the (rows, slices, dim, dim) products fit in one batch
        batch = workspace.take(mu.shape)
        products = batch.reshape(-1)[:mu.size * dim // lo].reshape(rows, -1, dim, dim)
        d = np.matmul(m, p.swapaxes(2, 3), out=products).sum(axis=1)
        workspace.give(batch)
    workspace.give(conj)
    return d


def _qubit_overlaps(block: np.ndarray, position: int, width: int) -> np.ndarray:
    """<mu_a|psi_c> per row, flattened as (a, c), for the qubit at
    `position` of the block: the partial trace over the other qubits."""
    left, right = 1 << position, 1 << (width - 1 - position)
    d = block.reshape(-1, left, 2, right, left, 2, right)
    return np.einsum("blxrlyr->bxy", d).reshape(-1, 4)


def _step_overlaps(step: Step, params: Sequence[float], mu: np.ndarray,
                   psi: np.ndarray, n: int, pred_grad: Dict[int, np.ndarray],
                   workspace: Workspace) -> None:
    """Add each probed occurrence in `step` to its slot's prediction
    gradient; mu and psi are taken at the step's output."""
    if step.kind is GateKind.ZZ:
        for slot, pairs in step.phase_groups:
            if slot in pred_grad:
                signs = _summed_pair_signs(n, pairs)
                pred_grad[slot] += (np.einsum("bx,bx,x->b", mu.real, psi.imag, signs)
                                    - np.einsum("bx,bx,x->b", mu.imag, psi.real, signs))
        return
    for first, width, gated in step.blocks:
        block = None
        for q in gated:
            generators = _conjugated_generators(step.wires[q], params, pred_grad)
            if not generators:
                continue
            if block is None:
                block = _block_overlaps(mu, psi, first, width, n, workspace)
            d = _qubit_overlaps(block, q - first, width)
            if len(d) == 1:
                # NumPy takes a one-row matrix times a vector as a dot
                # product, which sums in another order than the
                # matrix-vector kernel; a doubled row keeps a row's bits
                # independent of its row chunk's size
                d = np.concatenate([d, d])
            for slot, g in generators.items():
                pred_grad[slot] += (d @ g.reshape(4)).imag[:len(mu)]


def _tail_observable(circuit: Circuit, params: Sequence[float], stop: int
                     ) -> Tuple[int, tuple]:
    """The parity swept back through the circuit's steps from `stop` on,
    as far as it keeps a closed form: (b, A).

    A CNOT run maps a Z-string Z_S to a Z-string, and ZZ runs commute with
    it; S is tracked as a set of qubits, and undoing CNOT(c, t), last gate
    first, toggles c in S when t is in S.  If the step before that is a
    single-qubit step V, Z_S becomes the product operator V^dagger Z_S V,
    one 2x2 matrix v_q^dagger Z v_q per qubit q of S; q keeps Z where no
    step was absorbed or V does not gate q.  A is the parity's image at
    boundary b, so <P> = <psi_b|A|psi_b>, given as the Kronecker blocks of
    the per-qubit matrices (`_local_blocks`); blocks of Z alone have
    entries 0 and +-1 and give the signed amplitudes exactly."""
    steps, n = circuit.steps, circuit.n_qubits
    string = set(range(n))
    b = len(steps)
    while b > stop and steps[b - 1].kind in _DIAGONAL_ON_Z_STRINGS:
        b -= 1
        if steps[b].kind is GateKind.CNOT:
            for gate in reversed(steps[b].gates):
                control, target = gate.targets
                if target in string:
                    string ^= {control}
    mats = {q: _PAULI["Z"] for q in string}
    if b > stop and steps[b - 1].kind == _LOCAL:
        b -= 1
        wires = steps[b].wires
        for q in string & wires.keys():
            v = _wire_matrix(wires[q], params)
            mats[q] = v.conj().T @ mats[q] @ v
    return b, _local_blocks(mats, n)


def _tile_samples(circuit: Circuit, slots: Sequence[int], size: int, rows: int,
                  count: int) -> int:
    """Parameter vectors per tile of `_loss_gradients`, of `count` in all:
    as many as keep their step operators and per-row results, from their
    first row chunk to their last, within one row chunk's batch.  Each ZZ
    step's phases take 16 * 2^n bytes, the predictions and prediction
    gradients 8 bytes per row and slot.  A dataset of one row chunk keeps
    nothing across row chunks, so its tile is every vector."""
    if rows >= size:
        return max(1, count)
    zz_steps = sum(step.kind is GateKind.ZZ for step in circuit.steps)
    per_vector = zz_steps * (16 << circuit.n_qubits) + 8 * size * (1 + len(slots))
    return max(1, (16 * rows << circuit.n_qubits) // per_vector)


class _Sample:
    """One parameter vector's sweep state, kept from its first row chunk to
    its last: the parity's image, the step operators and full-length arrays
    of predictions and prediction gradients."""

    def __init__(self, circuit: Circuit, params: Sequence[float], slots: Sequence[int],
                 size: int, stop: int):
        self.params = params
        self.boundary, self.observable = _tail_observable(circuit, params, stop)
        # each step's operator is built once, by the first pass that applies
        # it (`simulator._step_operator`)
        self.operators: dict = {}
        self.preds = np.empty(size)
        self.pred_grad = {slot: np.zeros(size) for slot in slots}

    def loss_gradient(self, labels: np.ndarray, slots: Sequence[int]) -> np.ndarray:
        return np.array([np.mean(2.0 * (self.preds - labels) * self.pred_grad[slot])
                         for slot in slots])


def _loss_gradients(circuit: Circuit, param_vectors: Sequence[Sequence[float]],
                    labels: np.ndarray, slots: Sequence[int],
                    states: Callable[[slice], np.ndarray],
                    workspace: Optional[Workspace] = None) -> np.ndarray:
    """d(loss)/d(theta_s) for every s in `slots` at each of `param_vectors`,
    one row per vector, from one forward pass and one reverse sweep of the
    costate per row chunk and vector.

    `states(rows)` gives the amplitudes of the dataset rows in the slice
    `rows`, an array the sweeps only read.  A row's prediction and
    prediction gradient depend on no other row, so the rows are taken a row
    chunk of at most max(1, CHUNK_ENTRIES >> n) rows at a time, and every
    vector of a tile (`_tile_samples`) is swept on one row chunk
    (`_row_chunk_sweep`) before the next is asked for; each vector's
    results go into full-length arrays, and its loss gradient is the mean
    over all rows of 2 (p - y) dp/dtheta_s.  Every row chunk stores the
    states at the same probed steps: as many as `MAX_STORED_STATE_BYTES`
    holds of a row chunk's batches.

    Batches come from `workspace` and go back to it (see the module
    docstring); without one a throwaway workspace is used.
    """
    for params in param_vectors:
        _check_arguments(circuit, params, slots)
    if workspace is None:
        workspace = Workspace()
    steps, n, size = circuit.steps, circuit.n_qubits, len(labels)
    probed = [k for k, step in enumerate(steps) if not step.slots.isdisjoint(slots)]
    stop = probed[-1] + 1 if probed else len(steps)
    rows = max(1, min(size, CHUNK_ENTRIES >> n))
    kept = probed[:MAX_STORED_STATE_BYTES // (16 * rows << n)]
    tile = _tile_samples(circuit, slots, size, rows, len(param_vectors))
    out = np.empty((len(param_vectors), len(slots)))
    for first in range(0, len(param_vectors), tile):
        samples: Dict[int, _Sample] = {}
        for lo in range(0, size, rows):
            chunk = slice(lo, lo + rows)
            amps = states(chunk)
            for i in range(first, min(first + tile, len(param_vectors))):
                if lo == 0:
                    samples[i] = _Sample(circuit, param_vectors[i], slots, size, stop)
                sample = samples[i]
                sample.preds[chunk] = _row_chunk_sweep(
                    circuit, sample.params, amps, probed, kept, sample.boundary,
                    sample.observable, {slot: g[chunk] for slot, g in sample.pred_grad.items()},
                    workspace, sample.operators)
                if lo + rows >= size:
                    out[i] = samples.pop(i).loss_gradient(labels, slots)
            # the next row chunk's states are not built beside these
            del amps
    return out


def _loss_gradient_from_arrays(circuit: Circuit, params: Sequence[float],
                               amps: np.ndarray, labels: np.ndarray,
                               slots: Sequence[int],
                               workspace: Optional[Workspace] = None) -> np.ndarray:
    """d(loss)/d(theta_s) for every s in `slots` at one parameter vector:
    `_loss_gradients` with the rows sliced from `amps`, which is never
    written."""
    return _loss_gradients(circuit, [params], labels, slots, lambda rows: amps[rows],
                           workspace)[0]


def _row_chunk_sweep(circuit: Circuit, params: Sequence[float], amps: np.ndarray,
                     probed: Sequence[int], kept: Sequence[int], boundary: int,
                     observable: tuple, pred_grad: Dict[int, np.ndarray],
                     workspace: Workspace, operators: dict) -> np.ndarray:
    """The predictions of the rows of `amps`, adding each probed slot's
    prediction gradient into `pred_grad`.

    The forward pass stores the state at the `kept` steps, the earliest
    probed ones, and stops at the boundary b of `_tail_observable`, at or
    after the last probed step; there mu_b = A psi_b and p = Re<psi_b|mu_b>.
    The sweep undoes steps before b on mu and stops at the earliest probed
    step.  psi is swept back beside it, as a second batch, only down to the
    earliest probed step left unstored, so with nothing stored this is the
    sweep of both."""
    n, steps = circuit.n_qubits, circuit.steps
    stored: Dict[int, np.ndarray] = {}

    def release(batch: Optional[np.ndarray]) -> None:
        # give back a batch of this sweep's that nothing reads any more
        if (batch is not None and batch is not amps
                and all(batch is not state for state in stored.values())):
            workspace.give(batch)

    psi, cursor = amps, 0
    for k in kept:
        psi = stored[k] = _run_batch(circuit, params, psi, start=cursor, stop=k + 1,
                                     workspace=workspace, operators=operators)
        cursor = k + 1
    if cursor < boundary:
        psi = _run_batch(circuit, params, psi, start=cursor, stop=boundary,
                         workspace=workspace, operators=operators)
    mu = _apply_local(psi, observable, n, workspace)
    # Re<psi|mu>: the real dot product of the interleaved (re, im) pairs
    preds = np.einsum("bx,bx->b", psi.view(np.float64), mu.view(np.float64))
    swept = probed[len(kept):]  # steps reached by sweeping psi back
    if not swept:
        release(psi)
        psi = None
    cursor = boundary
    for k in reversed(probed):
        if cursor > k + 1:
            if psi is not None:
                back = _run_batch(circuit, params, psi, start=k + 1, stop=cursor,
                                  adjoint=True, workspace=workspace, operators=operators)
                release(psi)
                psi = back
            back = _run_batch(circuit, params, mu, start=k + 1, stop=cursor,
                              adjoint=True, workspace=workspace, operators=operators)
            workspace.give(mu)
            mu = back
            cursor = k + 1
        state = stored.pop(k, psi)
        _step_overlaps(steps[k], params, mu, state, n, pred_grad, workspace)
        if state is not psi:
            release(state)
        if swept and k == swept[0]:
            release(psi)
            psi = None
    workspace.give(mu)
    return preds


def gradient(circuit: Circuit, params: Sequence[float], dataset: Dataset,
             slot: int) -> float:
    """d(mse_loss)/d(theta_slot) by adjoint differentiation."""
    amps, labels = stack_dataset(dataset)
    return float(_loss_gradient_from_arrays(circuit, params, amps, labels, [slot])[0])


def gradient_finite_difference(circuit: Circuit, params: Sequence[float],
                               dataset: Dataset, slot: int, h: float = 1e-5) -> float:
    """Central finite difference of the loss in the slot parameter."""
    shifted = np.array(params, dtype=np.float64)
    shifted[slot] += h
    plus = mse_loss(circuit, shifted, dataset)
    shifted[slot] -= 2 * h
    minus = mse_loss(circuit, shifted, dataset)
    return (plus - minus) / (2 * h)
