"""Orbits of Pauli words under a permutation group, listed as digit strings.

A Pauli word is a length-N word over {0, 1, 2, 3} = I, X, Y, Z, indexing the
matrix sigma_{d1} (x) ... (x) sigma_{dN} (qubit 0 is the leftmost factor /
most significant bit).  The invariant subalgebra for a permutation group has
one basis element per orbit of nonzero words: i times the sum of the orbit's
matrices.  An orbit is held only as the digit characters of its words, such
as "0312", so that dimension counting never needs 2^N memory.  The Pauli
matrices themselves live in `indexing` (`SIGMA`), with the encodings: a
word's dense matrix is built from `indexing.pauli_columns`, and an orbit's
generator is `indexing.pauli_sum` of its members' digits, each weighted 1j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from .combinatorics import AnySpec
from .errors import StateSpaceCapExceeded
from .indexing import CHUNK_ENTRIES, MAX_LISTED_WORDS, word_digits
from .permutation_rep import orbit_canonical_labels

__all__ = ["OrbitListing", "enumerate_invariant_basis"]


@dataclass(frozen=True, slots=True, eq=False)
class OrbitListing:
    """Orbits held as one table of digit characters.

    Row r of ``table`` is the r-th listed word: its N digit characters,
    such as "0312", then the separator given to `enumerate_invariant_basis`.
    The rows run orbit by orbit; orbit i is ``table[bounds[i]:bounds[i + 1]]``,
    its words in lexicographic order, so its first row is the representative.
    A run of rows, read as bytes without its last separator, is the run's
    words joined by the separator.
    """

    table: np.ndarray
    bounds: np.ndarray
    degree: int

    def __len__(self) -> int:
        return self.bounds.size - 1

    def member_strings(self) -> Iterator[List[str]]:
        """Each orbit's words as strings, representative first."""
        n = self.degree
        for start, stop in zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist()):
            text = self.table[start:stop, :n].tobytes().decode("ascii")
            yield [text[i:i + n] for i in range(0, len(text), n)]


def enumerate_invariant_basis(spec: AnySpec, separator: str = ",") -> OrbitListing:
    """All orbits of nonzero Pauli strings, sorted by representative.

    Returns an `OrbitListing`: the words of every orbit as rows of digit
    characters, each followed by `separator`, and the offsets where each
    orbit starts.  The orbits partition {0..3}^N minus the all-identity
    word, so its length is exactly the invariant-subalgebra dimension.  The
    label scan walks generator edges only, so the state-space cap bounds the
    scan; a listing holds a table row per word, so it is refused above
    MAX_LISTED_WORDS before the scan starts.

    One stable sort of the labels groups the words by orbit with each
    orbit's words in index order, which is lexicographic order, so the
    first member is the representative.  The table is filled from the
    sorted indices a chunk of rows and a digit column at a time.
    """
    n = spec.degree
    if 4**n > MAX_LISTED_WORDS:
        raise StateSpaceCapExceeded(4**n, MAX_LISTED_WORDS)
    labels = orbit_canonical_labels(spec, 4)
    # the all-identity word 0 is alone in the lowest orbit and not an
    # algebra element
    order = np.argsort(labels, kind="stable")[1:]
    # the labels go before the table is made, which holds the peak
    ordered = labels[order]
    del labels
    bounds = np.concatenate(([0], np.flatnonzero(ordered[1:] != ordered[:-1]) + 1,
                             [order.size]))
    del ordered
    sep = np.frombuffer(separator.encode("ascii"), dtype=np.uint8)
    table = np.empty((order.size, n + sep.size), dtype=np.uint8)
    table[:, n:] = sep
    for start in range(0, order.size, CHUNK_ENTRIES):
        digits = table[start:start + CHUNK_ENTRIES, :n]
        word_digits(order[start:start + CHUNK_ENTRIES], n, out=digits)
        digits += ord("0")
    return OrbitListing(table, bounds, n)
