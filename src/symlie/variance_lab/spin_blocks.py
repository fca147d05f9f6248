"""Gradients of S_n-symmetric circuits on their spin blocks (Schur–Weyl).

By Schur–Weyl duality (C^2)^(x)n splits into V_j (x) M_j over the total
spins j = n/2, n/2 - 1, ..., and an operator that commutes with every qubit
permutation acts as U_j (x) 1 there.  The permutation ansatz and the parity
observable both do, so a state enters the loss only through one reduced
matrix rho_j per spin, (2j+1) x (2j+1), with the multiplicity space M_j
traced out (Anschuetz et al., arXiv:2211.16998; Schatzki et al.,
arXiv:2210.09974).  Their sizes add up to sum_j (2j+1)^2 = C(n+3, 3), one
more than the dimension of the S_n-invariant subalgebra.

Reduction.  Every dataset state is a graph state |G>, so the rho_j come
from its graph, not its 2^n amplitudes.  |G><G| = 2^-n sum_S K_S over the
vertex subsets S, with K_S = prod_(v in S) X_v Z_N(v) = (-1)^|E(S)| (-i)^#Y
times X on S - Z(S), Y on S & Z(S) and Z on Z(S) - S, where Z(S) is the
XOR of the neighbourhoods N(v) over v in S.  So <G|u^(x)n|G> for
u = aI + xX + yY + zZ is sum_S (-1)^|E(S)| (-i)^#Y a^#I x^#X y^#Y z^#Z,
and the signed histogram of (|S|, #Y, #Z), C(n+3, 3) numbers, fixes the
rho_j.  One subset sweep (`simulator.subset_codes`) gives every Z(S) and
|E(S)| mod 2; a fixed map per n (`_histogram_map`) turns the histogram
into the rho_j by Krawtchouk changes of variables and an exact
Gauss-Legendre projection onto Wigner's d^j(beta).  No amplitude, dense
operator, SVD or eigensolver is used.

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

import itertools
import math
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..indexing import popcount
from .circuits import all_pairs
from .simulator import _LOCAL, Circuit, GateKind, _check_arguments, subset_codes

__all__ = ["graph_spin_states", "loss_gradient_from_blocks"]


def _histogram_offsets(n: int) -> np.ndarray:
    """Start of each |S| = s in a histogram row, which holds (s + 1) x
    (n - s + 1) entries (#Y, #Z) per s, C(n + 3, 3) in all."""
    sizes = [(s + 1) * (n - s + 1) for s in range(n + 1)]
    return np.cumsum([0] + sizes)


def _stabilizer_histograms(graphs: np.ndarray, n: int) -> np.ndarray:
    """Per graph, the sum of (-1)^|E(S)| over the subsets S with each
    (|S|, #Y, #Z), entry (#Y, #Z) of |S| = s at offset s of
    `_histogram_offsets`; one subset sweep (`simulator.subset_codes`).

    K_S = (-1)^|E(S)| (-i)^#Y X on S - Z(S), Y on S & Z(S), Z on Z(S) - S."""
    offsets = _histogram_offsets(n)
    hist = np.zeros((len(graphs), int(offsets[-1])), dtype=np.int64)
    for rows, start, codes in subset_codes(graphs, n):
        hist[rows] += _signed_counts(codes, start, n, offsets)
    return hist


def _signed_counts(codes: np.ndarray, start: int, n: int, offsets: np.ndarray) -> np.ndarray:
    """The histogram rows of one piece of `simulator.subset_codes`."""
    width = int(offsets[-1])
    subsets = np.arange(start, start + codes.shape[1], dtype=codes.dtype)
    sizes = popcount(subsets)
    # bin 2 (offset + #Y (n - |S| + 1) + #Z) + parity, with
    # #Z = |Z(S)| - #Y and the code's set bits |Z(S)| + parity
    bins = popcount(codes & subsets) * (2 * (n - sizes)).astype(np.intp)
    ones = popcount(codes)
    bins += ones
    bins += ones
    bins -= codes >> n
    bins += 2 * offsets[sizes]
    bins += 2 * width * np.arange(len(bins))[:, None]
    counts = np.bincount(bins.ravel(), minlength=2 * width * len(bins))
    counts = counts.reshape(len(bins), width, 2)
    return counts[..., 0] - counts[..., 1]


def _krawtchouk(d: int) -> np.ndarray:
    """K[t, p]: the coefficient of u^p v^(d-p) in (u + v)^(d-t) (u - v)^t.

    Row t + 1 is row t times (u - v) / (u + v): with row t = (u + v) q,
    it is row t - 2 v q, q found by synthetic division."""
    rows = [[math.comb(d, p) for p in range(d + 1)]]
    for _ in range(d):
        quotient = itertools.accumulate(rows[-1], lambda q, c: c - q)
        rows.append([c - 2 * q for c, q in zip(rows[-1], quotient)])
    return np.array(rows, dtype=np.int64)


def _legendre_nodes(count: int) -> List[Tuple[float, float]]:
    """Gauss-Legendre (node, weight) pairs on [-1, 1], by Newton's method on
    the three-term recurrence of P_count; exact for degree < 2 count."""
    out = []
    for i in range(count):
        x = math.cos(math.pi * (i + 0.75) / (count + 0.5))
        for _ in range(100):
            below, p = 1.0, x
            for k in range(2, count + 1):
                below, p = p, ((2 * k - 1) * x * p - (k - 1) * below) / k
            slope = count * (x * p - below) / (x * x - 1)
            step = p / slope
            x -= step
            if abs(step) < 1e-15:
                break
        out.append((x, 2 / ((1 - x * x) * slope * slope)))
    return out


def _histogram_map(n: int) -> Tuple[List[Tuple[np.ndarray, np.ndarray, np.ndarray]], np.ndarray]:
    """The fixed linear map from a stabilizer histogram to the padded rho_j.

    <G|u^(x)n|G> = sum h a^#I x^#X y^#Y z^#Z for u = aI + xX + yY + zZ, the
    (-i)^#Y of K_S cancelling the i^#Y of y = i(u12 - u21)/2.  For each
    |S| = d2 the histogram's (#Y, #Z) slice becomes, by one Krawtchouk
    matrix per side, the coefficients of u11^p u12^q u21^r u22^s with
    p + s = d1 = n - d2, which sit at entry (k, l) = (n - p - q, d1 - p + q)
    of the weights of bra and ket.  On u = exp(-i beta Y/2) such a monomial
    is (-1)^q cos(beta/2)^d1 sin(beta/2)^d2, and <G|u^(x)n|G> =
    sum_j tr(d^j(beta) rho_j), so rho_j[l, k] is the projection on
    d^j_kl(beta), whose products are polynomials of degree <= n in
    cos(beta): Gauss-Legendre at n//2 + 1 nodes integrates them exactly.

    Returns, per d2, the integer Krawtchouk pair (with the (-1)^q folded
    in) and the flat (k, l) target of every (q, p); and B[d1, w, k, l], the
    projection weights of block w, zero outside it."""
    side, blocks = n + 1, n // 2 + 1
    projection = np.zeros((side, blocks, side, side))
    for node, weight in _legendre_nodes(blocks):
        half_cos, half_sin = math.sqrt((1 + node) / 2), math.sqrt((1 - node) / 2)
        turn = _spin_rotation("Y", math.acos(node), n).real
        for d1 in range(side):
            projection[d1] += weight * half_cos ** d1 * half_sin ** (n - d1) * turn
    inside = np.zeros((blocks, side, side))
    for w in range(blocks):
        inside[w, w:side - w, w:side - w] = (n + 1 - 2 * w) / 2 / 2 ** n
    projection *= inside
    degrees = []
    for d2 in range(side):
        d1 = n - d2
        q, p = np.arange(d2 + 1)[:, None], np.arange(d1 + 1)
        degrees.append((_krawtchouk(d2) * (1 - 2 * (q.T % 2)), _krawtchouk(d1),
                        ((n - p - q) * side + d1 - p + q).ravel()))
    return degrees, projection


def graph_spin_states(graphs: np.ndarray, n: int) -> np.ndarray:
    """The rho_j of the graph state of each row of neighbour masks
    (`simulator.subset_codes`) in the padded layout: shape
    (rows, n//2 + 1, n + 1, n + 1), block w = n/2 - j at
    [w:n+1-w, w:n+1-w] and zero elsewhere.

    The histogram is exact in integers, and so are its Krawtchouk
    transforms (below 2^53 up to n = 26); the projection sums over d1 in a
    fixed order, so a row's densities do not depend on the rows beside it."""
    degrees, projection = _histogram_map(n)
    offsets, side = _histogram_offsets(n), n + 1
    hist = _stabilizer_histograms(graphs, n)
    rows, blocks = len(graphs), n // 2 + 1
    out = np.zeros((rows, blocks, side, side), dtype=np.complex128)
    total = np.zeros((rows, blocks, side * side))
    # one buffer for every degree's term: a temporary per degree left the
    # allocator holding 0.7 MB more through the acceptance run's gradients
    term = np.empty_like(total)
    monomials = np.zeros((rows, side * side))
    for d2, (left, right, targets) in enumerate(degrees):
        d1 = n - d2
        counts = hist[:, offsets[d2]:offsets[d2 + 1]].reshape(rows, d2 + 1, d1 + 1)
        coefficients = left.T @ counts @ right
        monomials[:] = 0
        monomials[:, targets] = coefficients.reshape(rows, -1)
        np.multiply(monomials[:, None, :], projection[d1].reshape(blocks, -1), out=term)
        total += term
    out.real = total.reshape(out.shape).swapaxes(2, 3)
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
            ok = len(step.wires) == n and len(set(step.wires.values())) == 1
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
