"""Index encodings shared by the orbit scan, the oracle and the simulator."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlie.indexing import (
    digit_action,
    hamming_weights,
    index_to_word,
    max_partition_degree,
)
from symlie.permutation_rep import apply_to_tuple


@st.composite
def permutations(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return tuple(draw(st.permutations(range(n))))


class TestDigitAction:
    @given(permutations(), st.sampled_from((2, 3, 4)))
    @settings(max_examples=60, deadline=None)
    def test_matches_tuple_action(self, p, k):
        # index order is itertools.product order, so words[i] is what i encodes
        words = list(itertools.product(range(k), repeat=len(p)))
        images = digit_action(p, k)
        assert [words[j] for j in images] == [apply_to_tuple(p, w) for w in words]


class TestDecoder:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_order_is_product_order(self, n):
        assert ([index_to_word(i, n) for i in range(4**n)]
                == list(itertools.product(range(4), repeat=n)))


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
