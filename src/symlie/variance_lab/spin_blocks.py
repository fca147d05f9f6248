"""Gradients of S_n-symmetric circuits on their spin blocks (Schur–Weyl).

By Schur–Weyl duality (C^2)^(x)n splits into V_j (x) M_j over the total
spins j = n/2, n/2 - 1, ..., and an operator that commutes with every qubit
permutation acts as U_j (x) 1 there.  The permutation ansatz and the parity
observable both do, so a state enters the loss only through one reduced
matrix rho_j per spin, (2j+1) x (2j+1), with the multiplicity space M_j
traced out (Anschuetz et al., arXiv:2211.16998; Schatzki et al.,
arXiv:2210.09974).  Their sizes add up to sum_j (2j+1)^2 = C(n+3, 3), one
more than the dimension of the S_n-invariant subalgebra.

Reduction.  With J+ = sum_q |0><1|_q, which lowers the Hamming weight w by
one, and m = n/2 - w, block j has its highest weight at w = n/2 - j.  For
u_k = (J+)^k psi at that weight (the image of psi's weight-(w+k) part),
rho_j[k, l] = <u_l|Pi_j u_k> / (N_k N_l) in the basis |j, j - k>, with
N_k^2 = k! (2j)! / (2j - k)!, and Pi_j the Löwdin product over j' > j of
(J-J+ - c_j') / (-c_j'), c_j' = j'(j'+1) - j(j+1), which keeps the
highest-weight vectors of spin j.  J+ and J- act by gathers over the
weight-restricted index arrays (`_ladder_table`); the weights are swept
downward, so each psi_w is raised once and no dense 2^n x 2^n operator,
SVD or eigensolver is used.

Blocks share one padded layout: block j sits at positions w = n/2 - j ..
n/2 + j of n + 1 positions indexed by the Hamming weight, so a state's
densities are one (n//2 + 1, n + 1, n + 1) array, zero outside its blocks,
and an operator on every block is one stacked matrix.

Gradient.  The loss is linear in the densities, so its gradient is that of
the one expectation tr(P U sigma U^dagger), sigma = sum_r 2 (p_r - y_r)/R
rho_r, taken by adjoint differentiation (Jones and Gacon, arXiv:2009.02823)
in the Heisenberg picture.  Each rotation is its own factor
exp(-i theta/2 G): a rotation of a 1q step, identical on all n qubits, is
exp(-i theta J_axis), G = 2 J_axis, built from the exact eigenvectors of
J_axis (Wigner's d-matrix at pi/2); a ZZ slot on all n(n-1)/2 pairs is the
diagonal exp(-i theta (4m^2 - n)/4).  The parity P = (-1)^w is swept back
through the factors and kept after each probed one as O = U_after^dagger P
U_after; the predictions p_r = tr(O rho_r) at the input give sigma, which
is swept forward, and each probed factor adds
Re(-i/2 tr(O [G, sigma])) = Im tr([O, G] sigma) / 2 to its slot.
So two operators are swept, whatever the number of rows.  Any other step
raises ValueError, so a circuit that is not S_n-symmetric is never reduced.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..indexing import CHUNK_ENTRIES, hamming_weights
from .circuits import all_pairs
from .simulator import _LOCAL, Circuit, GateKind, _check_arguments

__all__ = ["spin_densities", "spin_states", "loss_gradient_from_blocks"]


@lru_cache(maxsize=None)
def _weight_states(n: int, w: int) -> np.ndarray:
    """Basis indices of Hamming weight w, ascending."""
    return np.flatnonzero(hamming_weights(n) == w)


@lru_cache(maxsize=None)
def _ranks(n: int) -> np.ndarray:
    """Position of every basis index among the indices of its weight."""
    ranks = np.empty(1 << n, dtype=np.int64)
    for w in range(n + 1):
        states = _weight_states(n, w)
        ranks[states] = np.arange(states.size)
    return ranks


@lru_cache(maxsize=None)
def _ladder_table(n: int, target: int, source: int) -> np.ndarray:
    """Per state of weight `target`, the ranks among weight `source` (one
    more or one less) of the states one bit flip away: J+ or J- from
    `source` to `target` is the sum of the gathers by its columns."""
    states = _weight_states(n, target)
    flipped = states[:, None] ^ (1 << np.arange(n))
    adjacent = hamming_weights(n)[flipped] == source
    return _ranks(n)[flipped[adjacent].reshape(states.size, -1)]


def _ladder(v: np.ndarray, table: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_t v[..., table[:, t]], one gather of the output's size at a time."""
    if out is None:
        out = np.empty(v.shape[:-1] + table.shape[:1], dtype=np.complex128)
    # the indices are in range; "clip" lets take write into `out` unbuffered
    np.take(v, table[:, 0], axis=-1, out=out, mode="clip")
    gathered = np.empty_like(out)
    for t in range(1, table.shape[1]):
        out += np.take(v, table[:, t], axis=-1, out=gathered, mode="clip")
    return out


def _highest_weight_part(u: np.ndarray, n: int, w: int) -> np.ndarray:
    """Pi_j u for vectors u of weight w = n/2 - j: the Löwdin product over
    j' = j + t, t = w, ..., 1, of 1 - J-J+ / c_j', c_j' = t (2j + t + 1)."""
    for t in range(w, 0, -1):
        lowered = _ladder(_ladder(u, _ladder_table(n, w - 1, w)), _ladder_table(n, w, w - 1))
        lowered /= -t * (n - 2 * w + t + 1)
        lowered += u
        u = lowered
    return u


def spin_densities(amps: np.ndarray, n: int) -> List[np.ndarray]:
    """rho_j of each row of `amps`: one (rows, 2j+1, 2j+1) array per
    w = n/2 - j = 0 .. n//2, in the basis |j, j>, |j, j-1>, ..., |j, -j>.

    The chains (J+)^i psi_(w+i), i = 0 .. n - w, are carried down the
    weights w = n .. 0; at w <= n/2 the first 2j+1 of them are the u_k.
    """
    rows = amps.shape[0]
    out: List[np.ndarray] = [np.empty(0)] * (n // 2 + 1)
    chains = amps[:, _weight_states(n, n)][:, None, :]
    for w in range(n, -1, -1):
        if w <= n // 2:
            d = n - 2 * w + 1
            u = chains[:, :d]
            rho = np.matmul(_highest_weight_part(u, n, w), u.conj().swapaxes(1, 2))
            # N_k^2 = prod_{t <= k} t (2j - t + 1)
            norms = np.sqrt(np.cumprod([1.0] + [t * (d - t) for t in range(1, d)]))
            out[w] = rho / np.outer(norms, norms)
        if w:
            below = _weight_states(n, w - 1)
            raised = np.empty((rows, chains.shape[1] + 1, below.size), dtype=np.complex128)
            raised[:, 0] = amps[:, below]
            table = _ladder_table(n, w - 1, w)
            for i in range(chains.shape[1]):
                _ladder(chains[:, i], table, out=raised[:, i + 1])
            chains = raised
    return out


def spin_states(amps: np.ndarray, n: int) -> np.ndarray:
    """The rho_j of each row of `amps` in the padded layout: shape
    (rows, n//2 + 1, n + 1, n + 1), block w = n/2 - j at
    [w:n+1-w, w:n+1-w] and zero elsewhere.

    The reduction's temporaries are a few times the amplitudes it reduces,
    so rows are reduced about CHUNK_ENTRIES amplitudes at a time."""
    rows, step = amps.shape[0], max(1, CHUNK_ENTRIES >> n)
    out = None
    for lo in range(0, rows, step):
        densities = spin_densities(amps[lo:lo + step], n)
        if out is None:  # after the first chunk's temporaries are freed
            out = np.zeros((rows, n // 2 + 1, n + 1, n + 1), dtype=np.complex128)
        for w, rho in enumerate(densities):
            out[lo:lo + step, w, w:n + 1 - w, w:n + 1 - w] = rho
    return out


def _half_turn(d: int) -> np.ndarray:
    """exp(-i pi/2 J_y) on spin j = (d - 1)/2, real, in the basis |j, j - k>:
    Wigner's d-matrix at beta = pi/2, its sum taken exactly in integers.  Its
    column k is the eigenvector of J_x with eigenvalue j - k."""
    out = np.empty((d, d))
    for row in range(d):
        for k in range(d):
            total = sum((-1) ** (t + k - row) * math.comb(d - 1 - k, t) * math.comb(k, row - t)
                        for t in range(max(0, row - k), min(d - 1 - k, row) + 1))
            out[row, k] = total * math.sqrt(math.comb(d - 1, k) / math.comb(d - 1, row))
    return out / 2 ** ((d - 1) / 2)


@lru_cache(maxsize=None)
def _spin_axes(n: int) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per axis: 2 J_axis of every block in the padded layout, stacked as
    (n//2 + 1, n + 1, n + 1), with its eigenvalues (m = j .. -j in the
    block, 0 outside) and eigenvectors: the identity for J_z, the half turn
    exp(-i pi/2 J_y) for J_x, and exp(-i pi/2 J_z) times it for J_y."""
    blocks, dim = n // 2 + 1, n + 1
    gens = np.zeros((3, blocks, dim, dim), dtype=np.complex128)
    vals = np.zeros((blocks, dim))
    turn = np.tile(np.eye(dim), (blocks, 1, 1))
    for w in range(blocks):
        d, block = n + 1 - 2 * w, slice(w, n + 1 - w)
        # J+|j, j-k> = sqrt(k (2j - k + 1)) |j, j-k+1>
        jp = np.diag(np.sqrt([k * (d - k) for k in range(1, d)]), 1)
        vals[w, block] = (d - 1) / 2 - np.arange(d)
        gens[:, w, block, block] = jp + jp.T, (jp - jp.T) / 1j, 2 * np.diag(vals[w, block])
        turn[w, block, block] = _half_turn(d)
    identity = np.tile(np.eye(dim, dtype=np.complex128), (blocks, 1, 1))
    quarter_z = np.exp(-0.5j * np.pi * vals)[:, :, None]
    return {"X": (gens[0], vals, turn.astype(np.complex128)),
            "Y": (gens[1], vals, quarter_z * turn), "Z": (gens[2], vals, identity)}


def _spin_rotation(axis: str, theta: float, n: int) -> np.ndarray:
    """exp(-i theta J_axis) on every block."""
    _, vals, vecs = _spin_axes(n)[axis]
    return (vecs * np.exp(-1j * theta * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2)


@lru_cache(maxsize=None)
def _weight_diagonals(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per position w: parity (-1)^w and the ZZ generator sum_(q<r) Z_q Z_r
    = ((n - 2w)^2 - n) / 2, the eigenvalue (4m^2 - n)/2 at m = n/2 - w."""
    w = np.arange(n + 1)
    return np.where(w % 2, -1.0, 1.0), ((n - 2 * w) ** 2 - n) // 2


@lru_cache(maxsize=None)
def _covers_all_pairs(n: int, pairs: Tuple[Tuple[int, int], ...]) -> bool:
    """Whether a ZZ slot's pairs are every qubit pair, each once."""
    return (len(pairs) == n * (n - 1) // 2
            and {tuple(sorted(p)) for p in pairs} == set(all_pairs(n)))


def _check_symmetric(circuit: Circuit) -> None:
    """Raise ValueError unless every step is one that spin blocks reduce."""
    n = circuit.n_qubits
    for k, step in enumerate(circuit.steps):
        if step.kind is GateKind.ZZ:
            ok = all(_covers_all_pairs(n, pairs) for _, pairs in step.phase_groups)
        elif step.kind == _LOCAL:
            wires = set(step.wires.values())
            ok = (len(step.wires) == n and len(wires) == 1
                  and all(axis in "XYZ" for axis, _ in wires.pop()))
        else:
            ok = False
        if not ok:
            raise ValueError(f"step {k} ({step.kind}) is not S_n-symmetric: spin blocks "
                             "take identical rotations on every qubit or ZZ on all pairs")


def _factors(circuit: Circuit,
             params: Sequence[float]) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """(slot, factor, generator) of every rotation in the order applied: a
    ZZ slot's factor and generator are diagonals of shape (n + 1,), a 1q
    rotation's are stacks of blocks (n//2 + 1, n + 1, n + 1)."""
    n = circuit.n_qubits
    zz = _weight_diagonals(n)[1]
    out = []
    for step in circuit.steps:
        if step.kind is GateKind.ZZ:
            out += [(slot, np.exp(-0.5j * params[slot] * zz), zz)
                    for slot, _ in step.phase_groups]
        else:
            out += [(slot, _spin_rotation(axis, params[slot], n), _spin_axes(n)[axis][0])
                    for axis, slot in step.wires[0]]
    return out


def _conjugate(op: np.ndarray, factor: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """F op F^dagger on every block, or F^dagger op F with `adjoint`."""
    if factor.ndim == 1:
        phases = factor.conj() if adjoint else factor
        return op * phases[:, None] * phases.conj()
    if adjoint:
        return factor.conj().swapaxes(1, 2) @ op @ factor
    return factor @ op @ factor.conj().swapaxes(1, 2)


def loss_gradient_from_blocks(circuit: Circuit, params: Sequence[float], states: np.ndarray,
                              labels: np.ndarray, slots: Sequence[int]) -> np.ndarray:
    """d(loss)/d(theta_s) for every s in `slots`, the dataset given as its
    `spin_states`; equal to `gradients._loss_gradient_from_arrays` on the
    statevectors.  Raises ValueError unless the circuit is S_n-symmetric."""
    _check_symmetric(circuit)
    _check_arguments(circuit, params, slots)
    n = circuit.n_qubits
    factors = _factors(circuit, params)
    grads = dict.fromkeys(slots, 0.0)
    observable = np.tile(np.diag(_weight_diagonals(n)[0]).astype(np.complex128),
                         (n // 2 + 1, 1, 1))
    stored: Dict[int, np.ndarray] = {}
    for k in range(len(factors) - 1, -1, -1):
        if factors[k][0] in grads:
            stored[k] = observable
        observable = _conjugate(observable, factors[k][1], adjoint=True)
    # p_r = tr(O rho_r) and sigma = sum_r 2 (p_r - y_r)/R rho_r; einsum, not
    # BLAS, so the sum over rows does not depend on the BLAS thread count
    preds = np.einsum("rbxy,byx->r", states, observable).real
    sigma = np.einsum("r,rbxy->bxy", 2.0 * (preds - labels) / len(labels), states)
    for k in range(max(stored, default=-1) + 1):
        slot, factor, generator = factors[k]
        sigma = _conjugate(sigma, factor)
        if k in stored:
            o = stored.pop(k)
            # Re(-i/2 tr(O [G, sigma])) = Im tr([O, G] sigma) / 2, and
            # tr(A sigma) = vdot(sigma, A) for Hermitian sigma; a generator
            # that commutes with O gives exactly 0
            if generator.ndim == 1:
                commutator = o * (generator - generator[:, None])
            else:
                commutator = o @ generator - generator @ o
            grads[slot] += np.vdot(sigma, commutator).imag / 2
    return np.array([grads[slot] for slot in slots])
