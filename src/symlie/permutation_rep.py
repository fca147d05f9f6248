"""Permutation groups as explicit element sets and their action on qubits.

A permutation is a tuple of images: ``p[i]`` is where symbol ``i`` goes.
Products compose left to right, ``compose(p, q)`` means "apply p, then q";
with this convention the qubit-space representation is a homomorphism,
``U_{pq} = U_p U_q``.

The action on index tuples is ``apply_to_tuple(p, t)[j] = t[p[j]]``; on the
2^N-dimensional state space the same permutation acts as a 0/1 matrix that
permutes bit strings, with qubit 0 mapped to the most significant bit (the
usual Kronecker-product ordering).  Conjugating a Pauli word's matrix by
U_p gives the matrix of the permuted word, which is the property tying the
two actions together (and the property the tests pin down).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from .combinatorics import AnySpec, Family, GroupSpec, group_order
from .errors import OrderCapExceeded, StateSpaceCapExceeded
from .indexing import DEFAULT_ORDER_CAP, DEFAULT_SPACE_CAP, matrix_side

__all__ = [
    "Permutation",
    "GroupElements",
    "identity",
    "compose",
    "inverse",
    "apply_to_tuple",
    "enumerate_elements",
    "group_generators",
    "orbit_canonical_labels",
    "count_orbits_bruteforce",
    "qubit_index_permutation",
    "qubit_permutation_matrix",
]

Permutation = Tuple[int, ...]


def identity(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right product: apply p first, then q."""
    return tuple(q[p[j]] for j in range(len(p)))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, img in enumerate(p):
        inv[img] = i
    return tuple(inv)


def sign(p: Permutation) -> int:
    inversions = sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])
    return -1 if inversions % 2 else 1


def apply_to_tuple(p: Permutation, t: Tuple[int, ...]) -> Tuple[int, ...]:
    """Permute an index tuple: output position j holds t[p[j]]."""
    if len(p) != len(t):
        raise ValueError(f"permutation degree {len(p)} != tuple length {len(t)}")
    return tuple(t[p[j]] for j in range(len(p)))


def _cycle(n: int, points: Sequence[int]) -> Permutation:
    p = list(range(n))
    for a, b in zip(points, points[1:]):
        p[a] = b
    p[points[-1]] = points[0]
    return tuple(p)


def _rotation(n: int) -> Permutation:
    return tuple((i + 1) % n for i in range(n))


def _reversal(n: int) -> Permutation:
    return tuple(n - 1 - i for i in range(n))


def _embed(p: Permutation, offset: int, total: int) -> Permutation:
    out = list(range(total))
    for i, img in enumerate(p):
        out[offset + i] = offset + img
    return tuple(out)


def _embedded_parts(spec: AnySpec, perms_of: Callable[[GroupSpec], Iterable[Permutation]]
                    ) -> List[List[Permutation]]:
    """perms_of(part) for every part, each moved onto its part's block of points."""
    blocks, offset = [], 0
    for part in spec.parts:
        blocks.append([_embed(p, offset, spec.degree) for p in perms_of(part)])
        offset += part.size
    return blocks


def _part_generators(part: GroupSpec) -> List[Permutation]:
    n = part.size
    if part.family is Family.SYMMETRIC:
        if n == 1:
            return []
        if n == 2:
            return [(1, 0)]
        return [_cycle(n, (0, 1)), _rotation(n)]
    if part.family is Family.ALTERNATING:
        if n <= 2:
            return []
        if n == 3:
            return [_cycle(3, (0, 1, 2))]
        gens = [_cycle(n, (i, i + 1, i + 2)) for i in range(0, n - 2, 2)]
        if n % 2 == 0:
            gens.append(_cycle(n, (n - 3, n - 2, n - 1)))
        return gens
    if part.family is Family.DIHEDRAL:
        if n == 1:
            return []
        if n == 2:
            return [(1, 0)]
        return [_rotation(n), _reversal(n)]
    if part.family is Family.CYCLIC:
        return [] if n == 1 else [_rotation(n)]
    return []


def group_generators(spec: AnySpec) -> List[Permutation]:
    """A small generating set for the group (empty for trivial groups): the
    generators of each part, on its block of points.

    Alternating groups use a chain of overlapping 3-cycles: (0 1 2),
    (2 3 4), ... plus a final (N-3 N-2 N-1) when N is even, so that the
    supports cover all points.  For N = 4 and 5 this is exactly two
    3-cycles.
    """
    return [g for block in _embedded_parts(spec, _part_generators) for g in block]


@dataclass(frozen=True)
class GroupElements:
    """A fully enumerated permutation group."""

    spec: AnySpec
    elements: Tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _part_elements(part: GroupSpec) -> Iterable[Permutation]:
    n = part.size
    if part.family is Family.SYMMETRIC:
        return itertools.permutations(range(n))
    if part.family is Family.ALTERNATING:
        return (p for p in itertools.permutations(range(n)) if sign(p) == 1)
    if part.family is Family.DIHEDRAL:
        rotations = {tuple((i + k) % n for i in range(n)) for k in range(n)}
        return rotations | {tuple((k - i) % n for i in range(n)) for k in range(n)}
    if part.family is Family.CYCLIC:
        return (tuple((i + k) % n for i in range(n)) for k in range(n))
    return [identity(n)]


def enumerate_elements(spec: AnySpec) -> GroupElements:
    """List every group element, refusing groups larger than DEFAULT_ORDER_CAP:
    each a product of one element per part, sorted."""
    order = group_order(spec)
    if order > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(order, DEFAULT_ORDER_CAP)
    factors = _embedded_parts(spec, _part_elements)
    elements = [functools.reduce(compose, combo) for combo in itertools.product(*factors)]
    result = GroupElements(spec, tuple(sorted(elements)))
    assert result.order == order
    return result


def _digit_permuted(values: np.ndarray, q: Permutation, k: int) -> np.ndarray:
    """``apply_to_tuple(q, .)`` on base-k words, as a strided view of shape
    [k] * N: entry i of the result, read in C order, is the value at the
    index of ``apply_to_tuple(q, word_i)``.  Digit j of that word is digit
    q[j] of word_i, so output axis m reads input axis inverse(q)[m]."""
    return values.reshape([k] * len(q)).transpose(inverse(q))


def orbit_canonical_labels(spec: AnySpec, alphabet: int = 4) -> np.ndarray:
    """Scan all alphabet^N tuples and label each with its orbit's lexicographic
    minimum.

    Returns one uint32 label per tuple, in index order: alphabet^N is at
    most DEFAULT_SPACE_CAP < 2^32, checked before any buffer is made.  A
    tuple is an orbit representative exactly when its label equals its own
    index.

    Labels are propagated along generator edges until a fixed point, which
    avoids enumerating group elements.  A generator acts on the label array
    as an axis transpose copied into one reused buffer, so no index map is
    built.  After each sweep every label is replaced by its own label until
    that changes nothing: a label always names a tuple of the same orbit, so
    these jumps are exact and cut the number of sweeps.
    """
    n = spec.degree
    size = alphabet**n
    if size > DEFAULT_SPACE_CAP:
        raise StateSpaceCapExceeded(size, DEFAULT_SPACE_CAP)
    moves = []
    for g in group_generators(spec):
        for q in (g, inverse(g)):
            if q not in moves and q != identity(n):
                moves.append(q)
    labels = np.arange(size, dtype=np.uint32)
    if not moves:
        return labels
    image, before = np.empty_like(labels), np.empty_like(labels)
    while True:
        np.copyto(before, labels)
        for q in moves:
            np.copyto(image.reshape([alphabet] * n), _digit_permuted(labels, q, alphabet))
            np.minimum(labels, image, out=labels)
        while True:
            # every label is a valid index; a mode other than "raise" lets
            # take write straight into `image` instead of a buffered copy
            np.take(labels, labels, out=image, mode="clip")
            if np.array_equal(image, labels):
                break
            labels, image = image, labels
        if np.array_equal(labels, before):
            return labels


def count_orbits_bruteforce(spec: AnySpec, alphabet: int = 4) -> int:
    """Number of orbits of {0..k-1}^N under the group, by exhaustive scan.

    Independent of the cycle-index route: only the generators' action on
    tuples is used, never Burnside averaging.
    """
    labels = orbit_canonical_labels(spec, alphabet)
    return int(np.count_nonzero(labels == np.arange(labels.size, dtype=labels.dtype)))


def qubit_index_permutation(p: Permutation) -> np.ndarray:
    """The bit-string permutation realized on basis states: U_p e_c = e_{out[c]}.

    Bit j of out[c] is bit p[j] of c, with qubit 0 the most significant bit.
    """
    return _digit_permuted(np.arange(1 << len(p)), p, 2).ravel()


def qubit_permutation_matrix(p: Permutation) -> np.ndarray:
    """The unique 0/1 unitary permuting qubits: built as a bit permutation on
    row indices, never by assembling Kronecker factors."""
    dim = matrix_side(len(p))
    rows = qubit_index_permutation(p)
    u = np.zeros((dim, dim), dtype=np.complex128)
    u[rows, np.arange(dim)] = 1.0
    return u
