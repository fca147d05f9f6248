"""Index encodings and bit counts shared by the orbit scan, the oracle and the simulator."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlie.errors import MatrixSizeCapExceeded
from symlie.indexing import (
    DEFAULT_MATRIX_CAP,
    SIGMA,
    hamming_weights,
    matrix_side,
    max_partition_degree,
    pauli_columns,
    word_digits,
)


class TestDecoder:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_order_is_product_order(self, n):
        digits = word_digits(np.arange(4**n), n)
        assert digits.dtype == np.uint8
        assert list(map(tuple, digits.tolist())) == list(itertools.product(range(4), repeat=n))


@st.composite
def word_batches(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    words = draw(st.lists(st.integers(0, 4**n - 1), min_size=1, max_size=8))
    return n, np.array(words)


class TestPauliColumns:
    @given(word_batches())
    @settings(max_examples=80, deadline=None)
    def test_columns_are_the_kronecker_fold(self, batch):
        n, words = batch
        digits = word_digits(words, n)
        rows, values = pauli_columns(digits)
        assert rows.shape == values.shape == (words.size, 1 << n)
        cols = np.arange(1 << n)
        for w, word in enumerate(digits.tolist()):
            expected = functools.reduce(np.kron, (SIGMA[d] for d in word))
            # one nonzero per column, at the row and with the value given
            assert np.array_equal(expected[rows[w], cols], values[w])
            assert np.count_nonzero(expected) == 1 << n


class TestMatrixSide:
    def test_side_at_and_above_the_cap(self):
        n = DEFAULT_MATRIX_CAP.bit_length() - 1
        assert matrix_side(n) == DEFAULT_MATRIX_CAP
        with pytest.raises(MatrixSizeCapExceeded):
            matrix_side(n + 1)


class TestHammingWeights:
    @pytest.mark.parametrize("n", range(0, 11))
    def test_counts_set_bits(self, n):
        assert hamming_weights(n).tolist() == [bin(i).count("1") for i in range(1 << n)]

    def test_shared_table_is_read_only(self):
        with pytest.raises(ValueError):
            hamming_weights(3)[0] = 1


def partition_counts(n_max):
    """p(0..n_max) by the coin-change recurrence over largest parts."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


class TestPartitionDegree:
    def test_matches_coin_change_counts(self):
        p = partition_counts(60)
        for cap in list(range(1, 1000)) + [89133, 89134, 105557, 105558, 10**6]:
            assert max_partition_degree(cap) == max(n for n in range(61) if p[n] <= cap)

    def test_known_boundary(self):
        # p(45) = 89,134 and p(46) = 105,558
        assert max_partition_degree(10**5) == 45

    def test_agrees_far_past_the_default_cap(self):
        p = partition_counts(600)
        assert p[-1] > 10**20
        assert max_partition_degree(10**20) == max(n for n, v in enumerate(p) if v <= 10**20)
