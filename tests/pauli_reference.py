"""Dense matrices of Pauli words and orbit generators for the tests.

An orbit is held as the digit strings of its words, as
`OrbitListing.member_strings` gives them.  A word's matrix here is the
Kronecker fold of `pauli_orbits.SIGMA`, with no use of
`indexing.pauli_columns`, so it is an independent reference for the
package's matrices; an orbit's generator, i times the sum of its words'
matrices, is the package's `indexing.pauli_sum`.
"""

import functools

import numpy as np

from symlie.indexing import pauli_sum
from symlie.pauli_orbits import SIGMA


def word_matrix(word):
    """sigma_{d1} (x) ... (x) sigma_{dN} for a word given as digits or as a
    digit string such as "0312"."""
    return functools.reduce(np.kron, (SIGMA[int(d)] for d in word))


def orbit_generator(members):
    """i times the sum of the members' matrices, for an orbit's digit strings."""
    digits = np.array([[int(d) for d in word] for word in members], dtype=np.uint8)
    return pauli_sum(digits, np.full(len(members), 1j))
