"""Gate-by-gate reference simulator for the differential tests.

Every gate kind has its own branch and is applied one gate at a time, with
the rotation matrices, basis-state bits and CNOT index map built here.
Nothing from the package's fused steps is used, so a test that compares the
package with this module compares two independent simulations.  The
conventions are the package's: qubit 0 is the most significant bit, and a
rotation is exp(-i*theta/2 * G).
"""

import math

import numpy as np

from symlie.variance_lab.simulator import GateKind


def _rx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(theta):
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]],
                    dtype=np.complex128)


def _bit(n, q):
    return (np.arange(1 << n) >> (n - 1 - q)) & 1


def _apply_1q(amps, u, q, n):
    x = amps.reshape(-1, 2, 1 << (n - 1 - q))
    out = np.empty(x.shape, dtype=np.complex128)
    out[:, 0, :] = u[0, 0] * x[:, 0, :] + u[0, 1] * x[:, 1, :]
    out[:, 1, :] = u[1, 0] * x[:, 0, :] + u[1, 1] * x[:, 1, :]
    return out.reshape(amps.shape)


def apply_gate_reference(amps, gate, angles, n):
    """One gate on a batch of states (last axis is the state), its angles
    given in slot order."""
    kind = gate.kind
    if kind is GateKind.RX:
        return _apply_1q(amps, _rx(angles[0]), gate.targets[0], n)
    if kind is GateKind.RY:
        return _apply_1q(amps, _ry(angles[0]), gate.targets[0], n)
    if kind is GateKind.RZ:
        return _apply_1q(amps, _rz(angles[0]), gate.targets[0], n)
    if kind is GateKind.ROT3:
        # RZ-RY-RZ Euler rotation; slots are in application order
        u = _rz(angles[2]) @ _ry(angles[1]) @ _rz(angles[0])
        return _apply_1q(amps, u, gate.targets[0], n)
    if kind is GateKind.ZZ:
        i, j = gate.targets
        half = 0.5j * angles[0]
        return amps * np.where(_bit(n, i) ^ _bit(n, j), np.exp(half), np.exp(-half))
    if kind is GateKind.CNOT:
        control, target = gate.targets
        # out[x] = in[x with the target bit flipped when the control is set]
        perm = np.arange(1 << n) ^ (_bit(n, control) << (n - 1 - target))
        return np.take(amps, perm, axis=-1)
    raise ValueError(f"unhandled gate kind {kind}")


def apply_cz_reference(amps, pair, n):
    """A CZ gate on qubits `pair`, which no ansatz uses but graph states are
    defined by: the sign flips where both bits are set."""
    i, j = pair
    out = np.array(amps, dtype=np.complex128)
    out[..., (_bit(n, i) & _bit(n, j)).astype(bool)] *= -1.0
    return out


def gate_by_gate(circuit, params, amps):
    """The circuit applied to a batch of states one gate at a time."""
    out = np.asarray(amps, dtype=np.complex128)
    for gate in circuit.gates:
        out = apply_gate_reference(out, gate, [params[s] for s in gate.slots],
                                   circuit.n_qubits)
    return out


def reference_predictions(circuit, params, amps):
    """<Z^(x)n> of each state after the circuit, run gate by gate."""
    n = circuit.n_qubits
    signs = np.array([(-1.0) ** bin(b).count("1") for b in range(1 << n)])
    return (np.abs(gate_by_gate(circuit, params, amps)) ** 2) @ signs
