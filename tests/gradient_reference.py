"""Full-sweep reference for the adjoint loss gradient.

The forward pass runs every step of the circuit, the costate starts as
mu_out = P psi_out at the very end, and the reverse sweep undoes every step
after the earliest probed one; nothing of the circuit's tail is folded into
the observable.  The state at probed steps is stored up to the package's
`MAX_STORED_STATE_BYTES` as read here, so patching the cap in `gradients`
changes only the gradient under test.  The overlaps at each probed step are
the package's, so a test that compares `_loss_gradient_from_arrays` with
`reference_loss_gradient` checks where the sweep starts and what it skips.
"""

from typing import Dict, Sequence

import numpy as np

from symlie.indexing import MAX_STORED_STATE_BYTES
from symlie.variance_lab.gradients import _step_overlaps
from symlie.variance_lab.simulator import (Circuit, Workspace, _check_arguments,
                                           _parity_batch, _parity_signs, _run_batch)


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
        _step_overlaps(steps[k], params, mu, stored.pop(k, psi), n, pred_grad, Workspace())
        if swept and k == swept[0]:
            psi = None
    return np.array([np.mean(2.0 * (preds - labels) * pred_grad[slot]) for slot in slots])
