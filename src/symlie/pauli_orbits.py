"""Orbits of Pauli words under a permutation group, listed as digit strings.

A Pauli word is a length-N word over {0, 1, 2, 3} = I, X, Y, Z, indexing the
matrix sigma_{d1} (x) ... (x) sigma_{dN} (qubit 0 is the leftmost factor /
most significant bit).  The invariant subalgebra for a permutation group has
one basis element per orbit of nonzero words: i times the sum of the orbit's
matrices.  An orbit is held only as the digit strings of its words, such as
"0312", so that dimension counting never needs 2^N memory; a word's dense
matrix is built from `indexing.pauli_columns`, and an orbit's generator is
`indexing.pauli_sum` of its members' digits, each weighted 1j.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from .combinatorics import AnySpec
from .errors import StateSpaceCapExceeded
from .indexing import DEFAULT_SPACE_CAP, MAX_LISTED_WORDS, word_digits
from .permutation_rep import orbit_canonical_labels

__all__ = ["SIGMA", "OrbitListing", "enumerate_invariant_basis"]

SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


class OrbitListing:
    """Orbits held as digit strings.

    ``words`` lists every word of every orbit as a string such as "0312",
    orbit by orbit; orbit i is ``words[bounds[i]:bounds[i + 1]]``, with its
    words in lexicographic order.
    """

    __slots__ = ("words", "bounds")

    def __init__(self, words: List[str], bounds: List[int]):
        self.words = words
        self.bounds = bounds

    def __len__(self) -> int:
        return len(self.bounds) - 1

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
