"""Loss and gradients for the parity-observable classifier.

The prediction for a state is p = <Z^(x)n> after the ansatz; the loss is
the mean squared error against labels.  Gradients come from adjoint
differentiation (Jones and Gacon, arXiv:2009.02823): every parametrized
gate here is exp(-i*theta/2 * G), so an occurrence of a slot contributes
dp/dtheta = Im<mu|G|psi>, where psi is the state just after the gate and
mu the costate P U_after psi with the suffix U_after of the circuit.  One
forward pass gives the output state psi_out and mu_out = P psi_out; one
reverse sweep through the inverse circuit carries both back and collects
every occurrence of every probed slot.  A central finite difference of the
loss serves as the independent cross-check.
"""

from __future__ import annotations

from typing import Container, Dict, List, Sequence, Tuple

import numpy as np

from .simulator import (Circuit, Gate, GateKind, StateVector, _parity_batch,
                        _parity_signs, _run_batch, _summed_pair_signs)

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


def _im_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Im sum conj(u) v per batch row, from real views: no conjugated copies
    return (np.einsum("bij,bij->b", u.real, v.imag)
            - np.einsum("bij,bij->b", u.imag, v.real))


def _re_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (np.einsum("bij,bij->b", u.real, v.real)
            + np.einsum("bij,bij->b", u.imag, v.imag))


def _generator_overlap(mu: np.ndarray, psi: np.ndarray, run: Sequence[Gate],
                       n: int) -> np.ndarray:
    """Im<mu|G|psi> per row, G the summed generators of a run of commuting
    gates (one kind, one slot).  A ZZ run's G is the same summed pair-sign
    diagonal the simulator fuses the run with."""
    kind = run[0].kind
    if kind is GateKind.ZZ:
        signs = _summed_pair_signs(n, tuple(g.targets for g in run))
        return (np.einsum("bx,bx,x->b", mu.real, psi.imag, signs)
                - np.einsum("bx,bx,x->b", mu.imag, psi.real, signs))
    total = np.zeros(mu.shape[0])
    for gate in run:
        lo = 1 << (n - 1 - gate.targets[0])
        m = mu.reshape(mu.shape[0], -1, 2, lo)
        p = psi.reshape(m.shape)
        m0, m1, p0, p1 = m[:, :, 0], m[:, :, 1], p[:, :, 0], p[:, :, 1]
        if kind is GateKind.RX:
            total += _im_dot(m0, p1) + _im_dot(m1, p0)
        elif kind is GateKind.RY:  # Y = [[0, -i], [i, 0]]
            total += _re_dot(m1, p0) - _re_dot(m0, p1)
        else:
            total += _im_dot(m0, p0) - _im_dot(m1, p1)
    return total


def _probed_runs(gates: Sequence[Gate], probed: Container[int]) -> List[Tuple[int, int]]:
    """(start, stop) of each maximal run of consecutive gates with one kind
    and one probed slot; their generators commute, so a run is measured at
    one point of the sweep."""
    runs = []
    gi = 0
    while gi < len(gates):
        gate = gates[gi]
        stop = gi + 1
        if gate.slots and gate.slots[0] in probed:
            while (stop < len(gates) and gates[stop].kind is gate.kind
                   and gates[stop].slots == gate.slots):
                stop += 1
            runs.append((gi, stop))
        gi = stop
    return runs


def _loss_gradient_from_arrays(circuit: Circuit, params: Sequence[float],
                               amps: np.ndarray, labels: np.ndarray,
                               slots: Sequence[int]) -> np.ndarray:
    """d(loss)/d(theta_s) for every s in `slots` from one forward pass and
    one reverse sweep of state and costate.

    The sweep runs the inverse circuit with negated parameters and stops at
    the earliest probed occurrence; psi and mu are swept as two separate
    batches, which keeps the peak allocation at that of one forward pass
    plus one batch.
    """
    for slot in slots:
        if slot < 0 or slot >= circuit.n_params:
            raise ValueError(f"slot {slot} out of range")
    n = circuit.n_qubits
    psi = _run_batch(circuit, params, amps)
    preds = _parity_batch(psi, n)
    mu = psi * _parity_signs(n)
    inverse = circuit.inverse
    back = np.negative(params, dtype=np.float64)
    pred_grad: Dict[int, np.ndarray] = {slot: np.zeros(amps.shape[0]) for slot in slots}
    cursor = 0
    for start, stop in _probed_runs(inverse.gates, pred_grad):
        if start > cursor:
            psi = _run_batch(inverse, back, psi, start=cursor, stop=start)
            mu = _run_batch(inverse, back, mu, start=cursor, stop=start)
            cursor = start
        run = inverse.gates[start:stop]
        pred_grad[run[0].slots[0]] += _generator_overlap(mu, psi, run, n)
    return np.array([np.mean(2.0 * (preds - labels) * pred_grad[slot]) for slot in slots])


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
