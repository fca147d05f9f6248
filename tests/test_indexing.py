"""Index encodings shared by the orbit scan, the oracle and the simulator."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlie.indexing import digit_action, hamming_weights, index_to_word
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
