"""Dense matrices of Pauli words and orbit generators, and the orbit
listing's text, for the tests.

An orbit is held as the digit strings of its words, as
`OrbitListing.member_strings` gives them.  A word's matrix here is the
Kronecker fold of `indexing.SIGMA`, with no use of
`indexing.pauli_columns`, so it is an independent reference for the
package's matrices; an orbit's generator, i times the sum of its words'
matrices, is the package's `indexing.pauli_sum`.  `listing_text` writes
an orbit listing as the CLI did when every word was a string: the
reference for its writer, which makes no string per word.
"""

import functools

import numpy as np

from symlie.indexing import pauli_sum, word_digits
from symlie.indexing import SIGMA
from symlie.permutation_rep import orbit_canonical_labels


def word_matrix(word):
    """sigma_{d1} (x) ... (x) sigma_{dN} for a word given as digits or as a
    digit string such as "0312"."""
    return functools.reduce(np.kron, (SIGMA[int(d)] for d in word))


def orbit_generator(members):
    """i times the sum of the members' matrices, for an orbit's digit strings."""
    digits = np.array([[int(d) for d in word] for word in members], dtype=np.uint8)
    return pauli_sum(digits, np.full(len(members), 1j))


def listing_text(spec, fmt):
    """The text of `symlie orbits SPEC --format FMT` as a list of word
    strings formats it: the labels sorted once, every word decoded to its
    own string, and each orbit's row joined from those strings."""
    n = spec.degree
    labels = orbit_canonical_labels(spec, 4)
    order = np.argsort(labels, kind="stable")[1:]
    bounds = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), order.size]
    chars = np.full((order.size, n + 1), ord(" "), dtype=np.uint8)
    np.add(word_digits(order, n), ord("0"), out=chars[:, :n])
    words = chars.tobytes().decode("ascii").split()
    orbits = [words[start:stop] for start, stop in zip(bounds, bounds[1:])]
    if fmt == "json":
        return "[" + ", ".join(['{"representative": "%s", "weight": %d, "members": ["%s"]}'
                                % (m[0], len(m), '", "'.join(m)) for m in orbits]) + "]\n"
    headers = ["representative", "weight", "members"]
    rows = [[m[0], str(len(m)), ",".join(m)] for m in orbits]
    if fmt == "csv":
        return "".join(";".join(row) + "\n" for row in [headers, *rows])
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n"
                   for line in [headers, *rows])
