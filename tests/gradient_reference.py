"""Full-sweep reference for the adjoint loss gradient.

The forward pass runs every step of the circuit, the costate starts as
mu_out = P psi_out at the very end, and the reverse sweep undoes every step
after the earliest probed one; nothing of the circuit's tail is folded into
the observable.  The state at probed steps is stored up to the package's
`MAX_STORED_STATE_BYTES` as read here, so patching the cap in `gradients`
changes only the gradient under test.  The overlaps at each probed step are
the package's, so a test that compares `_loss_gradient_from_arrays` with
`reference_loss_gradient` checks where the sweep starts and what it skips.

`diagonal_tail_observable` is the parity's image at the tail boundary as a
sweep of the +-1 diagonal through each CNOT run's inverse gather gives it.
"""

from typing import Dict, Sequence

import numpy as np

from symlie.indexing import MAX_STORED_STATE_BYTES
from symlie.variance_lab.gradients import _step_overlaps, _step_probes
from symlie.variance_lab.simulator import (_LOCAL, Circuit, GateKind, Workspace,
                                           _check_arguments, _local_blocks, _parity_batch,
                                           _parity_signs, _run_batch, _wire_matrix)

_Z = np.diag([1.0, -1.0]).astype(np.complex128)


def reference_loss_gradient(circuit: Circuit, params: Sequence[float], amps: np.ndarray,
                            labels: np.ndarray, slots: Sequence[int]) -> np.ndarray:
    """d(loss)/d(theta_s) for every s in `slots`, the costate swept back
    from the circuit's output."""
    _check_arguments(circuit, params, slots)
    n = circuit.n_qubits
    steps = circuit.steps
    pred_grad: Dict[int, np.ndarray] = {slot: np.zeros(amps.shape[0]) for slot in slots}
    probed = [k for k, step in enumerate(steps) if not step.slots.isdisjoint(pred_grad)]
    kept = probed[:MAX_STORED_STATE_BYTES // max(1, 16 * amps.size)]
    stored: Dict[int, np.ndarray] = {}
    psi, cursor = amps, 0
    for k in kept:
        psi = stored[k] = _run_batch(circuit, params, psi, start=cursor, stop=k + 1)
        cursor = k + 1
    if cursor < len(steps):
        psi = _run_batch(circuit, params, psi, start=cursor)
    preds = _parity_batch(psi, n)
    mu = psi * _parity_signs(n)
    swept = probed[len(kept):]  # steps reached by sweeping psi back
    if not swept:
        psi = None
    cursor = len(steps)
    for k in reversed(probed):
        if cursor > k + 1:
            if psi is not None:
                psi = _run_batch(circuit, params, psi, start=k + 1, stop=cursor, adjoint=True)
            mu = _run_batch(circuit, params, mu, start=k + 1, stop=cursor, adjoint=True)
            cursor = k + 1
        _step_overlaps(steps[k], _step_probes(steps[k], params, pred_grad), mu,
                       stored.pop(k, psi), n, pred_grad, Workspace())
        if swept and k == swept[0]:
            psi = None
    return np.array([np.mean(2.0 * (preds - labels) * pred_grad[slot]) for slot in slots])


def diagonal_tail_observable(circuit: Circuit, params: Sequence[float], stop: int):
    """(b, A) with b the boundary before the circuit's unprobed tail, from
    `stop` on, and A the parity's image there: the +-1 diagonal reindexed by
    each CNOT run's inverse gather and left alone by ZZ runs, or, when a
    single-qubit step V is absorbed, the Kronecker blocks of v_q^dagger Z v_q
    on each qubit q where that diagonal is -1 on the basis state 2^(n-1-q)."""
    steps, n = circuit.steps, circuit.n_qubits
    diagonal = _parity_signs(n)
    b = len(steps)
    while b > stop and steps[b - 1].kind in (GateKind.CNOT, GateKind.ZZ):
        b -= 1
        if steps[b].kind is GateKind.CNOT:
            diagonal = diagonal[steps[b].inverse_gather]
    if b == stop or steps[b - 1].kind != _LOCAL:
        return b, diagonal
    b -= 1
    wires = steps[b].wires
    mats = {}
    for q in range(n):
        if diagonal[1 << (n - 1 - q)] < 0:
            v = _wire_matrix(wires[q], params) if q in wires else np.eye(2, dtype=np.complex128)
            mats[q] = v.conj().T @ _Z @ v
    return b, _local_blocks(mats, n)
