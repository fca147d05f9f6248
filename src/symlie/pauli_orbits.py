"""Pauli strings, their dense matrices, and symmetrized orbit bases.

A Pauli string is a length-N word over {0, 1, 2, 3} indexing the matrix
sigma_{d1} (x) ... (x) sigma_{dN} under the Kronecker convention (qubit 0 is
the leftmost factor / most significant bit).  The invariant subalgebra for a
permutation group has one basis element per orbit of strings: the sum of the
orbit's matrices, multiplied by i to make it skew-Hermitian.  Orbits are
stored as plain digit strings (a listing) or tuples (one basis element), so
that dimension counting never needs 2^N memory; dense matrices are built on
demand and capped.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .combinatorics import AnySpec
from .errors import StateSpaceCapExceeded
from .indexing import (DEFAULT_SPACE_CAP, MAX_LISTED_WORDS, matrix_side, pauli_columns,
                       pauli_sum, word_digits)
from .permutation_rep import orbit_canonical_labels

__all__ = [
    "SIGMA",
    "PauliString",
    "OrbitBasisElement",
    "OrbitListing",
    "pauli_string_from_str",
    "pauli_string_to_str",
    "pauli_matrix",
    "enumerate_invariant_basis",
    "symmetrized_generator",
    "orbit_to_json",
    "orbit_from_json",
]

PauliString = Tuple[int, ...]

SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def _validate(s: PauliString) -> None:
    if len(s) < 1 or any(d not in (0, 1, 2, 3) for d in s):
        raise ValueError(f"not a Pauli string: {s!r}")


def pauli_string_from_str(text: str) -> PauliString:
    """Decode the external digit-string format, e.g. "0312"."""
    s = tuple(int(c) for c in text)
    _validate(s)
    return s


# digit d -> the character "d": one table lookup per digit, no per-digit str()
_DIGIT_CHARS = bytes.maketrans(bytes(range(4)), b"0123")


def pauli_string_to_str(s: PauliString) -> str:
    _validate(s)
    return bytes(s).translate(_DIGIT_CHARS).decode()


def pauli_matrix(s: PauliString) -> np.ndarray:
    """Dense 2^N x 2^N matrix of the string (without the i prefactor)."""
    _validate(s)
    dim = matrix_side(len(s))
    rows, values = pauli_columns(np.array([s], dtype=np.uint8))
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[rows[0], np.arange(dim)] = values[0]
    return m


@dataclass(frozen=True)
class OrbitBasisElement:
    """One orbit of Pauli strings: the formal basis element of the invariant
    subalgebra it generates."""

    representative: PauliString
    members: Tuple[PauliString, ...]

    def __post_init__(self):
        if self.representative != min(self.members):
            raise ValueError("representative must be the lexicographic minimum")
        if len(set(self.members)) != len(self.members):
            raise ValueError("orbit members must be distinct")
        for s in self.members:
            _validate(s)
            if len(s) != len(self.representative):
                raise ValueError(f"orbit members must have the representative's length: {s!r}")

    @property
    def weight(self) -> int:
        return len(self.members)


class OrbitListing(Sequence[OrbitBasisElement]):
    """Read-only sequence of orbits held as digit strings.

    ``words`` lists every word of every orbit as a string such as "0312",
    orbit by orbit; orbit i is ``words[bounds[i]:bounds[i + 1]]``, with its
    words in lexicographic order.  An `OrbitBasisElement` is built only when
    an orbit is indexed or iterated.
    """

    __slots__ = ("words", "bounds")

    def __init__(self, words: List[str], bounds: List[int]):
        self.words = words
        self.bounds = bounds

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, i: int) -> OrbitBasisElement:
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("orbit index out of range")
        # the element validates its members
        members = tuple(tuple(map(int, w)) for w in self.words[self.bounds[i]:self.bounds[i + 1]])
        return OrbitBasisElement(members[0], members)

    def member_strings(self) -> Iterator[List[str]]:
        """Each orbit's words as strings, representative first."""
        words, bounds = self.words, self.bounds
        return (words[start:stop] for start, stop in zip(bounds, bounds[1:]))


def enumerate_invariant_basis(spec: AnySpec, space_cap: int = DEFAULT_SPACE_CAP) -> OrbitListing:
    """All orbits of nonzero Pauli strings, sorted by representative.

    Returns an `OrbitListing`: the words of every orbit as digit strings and
    the offsets where each orbit starts.  The orbits partition {0..3}^N minus
    the all-identity word, so its length is exactly the invariant-subalgebra
    dimension.  The label scan walks generator edges only, so the state-space
    cap bounds the scan; a listing holds every word as a string, so it is
    refused above MAX_LISTED_WORDS before the scan starts.

    One stable sort of the labels groups the words by orbit with each
    orbit's words in index order, which is lexicographic order, so the
    first member is the representative.  The strings are written from the
    sorted indices as one table of digit characters.
    """
    n = spec.degree
    if 4**n > MAX_LISTED_WORDS:
        raise StateSpaceCapExceeded(4**n, MAX_LISTED_WORDS)
    labels = orbit_canonical_labels(spec, 4, space_cap)
    # the all-identity word 0 is alone in the lowest orbit and not an
    # algebra element
    order = np.argsort(labels, kind="stable")[1:]
    bounds = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), order.size]
    # one row of digit characters and a space per word, decoded and split
    # in one pass
    chars = np.full((order.size, n + 1), ord(" "), dtype=np.uint8)
    np.add(word_digits(order, n), ord("0"), out=chars[:, :n])
    return OrbitListing(chars.tobytes().decode("ascii").split(), bounds)


def symmetrized_generator(element: OrbitBasisElement) -> np.ndarray:
    """i times the unnormalized sum of the orbit's matrices: skew-Hermitian,
    traceless, and commuting with every group representation matrix.

    Coefficients are 1 per member; rescaling would not change the span.
    """
    return pauli_sum(np.array(element.members, dtype=np.uint8), np.full(element.weight, 1j))


def orbit_to_json(element: OrbitBasisElement) -> dict:
    return {
        "representative": pauli_string_to_str(element.representative),
        "weight": element.weight,
        "members": list(map(pauli_string_to_str, element.members)),
    }


def orbit_from_json(data: dict) -> OrbitBasisElement:
    return OrbitBasisElement(
        representative=pauli_string_from_str(data["representative"]),
        members=tuple(pauli_string_from_str(m) for m in data["members"]),
    )
