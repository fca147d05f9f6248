"""Element enumeration, tuple action, orbit scans, and qubit matrices."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pauli_reference import word_matrix

from symlie.cli import parse_group_spec
from symlie.combinatorics import (Family, GroupSpec, ProductGroupSpec, cycle_index, dimension,
                                  evaluate, group_order)
from symlie.errors import OrderCapExceeded, StateSpaceCapExceeded
from symlie.indexing import DEFAULT_SPACE_CAP
from symlie.permutation_rep import (
    _digit_permuted,
    apply_to_tuple,
    compose,
    count_orbits_bruteforce,
    enumerate_elements,
    group_generators,
    identity,
    inverse,
    orbit_canonical_labels,
    qubit_index_permutation,
    qubit_permutation_matrix,
)

ALL_FAMILIES = list(Family)


def mulclose(generators, n):
    """Closure of a generating set under composition."""
    elements = {identity(n)}
    frontier = list(elements)
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = compose(p, g)
            if q not in elements:
                elements.add(q)
                frontier.append(q)
    return elements


@st.composite
def permutation_and_tuple(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    perm = tuple(draw(st.permutations(range(n))))
    t = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return perm, t


class TestEnumeration:
    def test_cyclic_3_exact(self):
        elems = enumerate_elements(GroupSpec(Family.CYCLIC, 3)).elements
        assert set(elems) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}

    def test_dihedral_3_is_s3(self):
        d3 = enumerate_elements(GroupSpec(Family.DIHEDRAL, 3)).elements
        s3 = enumerate_elements(GroupSpec(Family.SYMMETRIC, 3)).elements
        assert len(d3) == 6
        assert set(d3) == set(s3)

    def test_symmetric_13_exceeds_cap(self):
        with pytest.raises(OrderCapExceeded) as err:
            enumerate_elements(GroupSpec(Family.SYMMETRIC, 13))
        assert err.value.order == 6227020800

    @pytest.mark.parametrize("family,n,expected", [
        (Family.DIHEDRAL, 1, 1), (Family.DIHEDRAL, 2, 2), (Family.DIHEDRAL, 5, 10),
        (Family.ALTERNATING, 1, 1), (Family.ALTERNATING, 2, 1), (Family.ALTERNATING, 4, 12),
        (Family.SYMMETRIC, 4, 24), (Family.CYCLIC, 7, 7), (Family.TRIVIAL, 5, 1),
    ])
    def test_orders(self, family, n, expected):
        assert enumerate_elements(GroupSpec(family, n)).order == expected

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_group_axioms(self, family, n):
        elems = set(enumerate_elements(GroupSpec(family, n)).elements)
        assert identity(n) in elems
        for p in elems:
            assert inverse(p) in elems
        for p, q in itertools.islice(itertools.product(elems, elems), 500):
            assert compose(p, q) in elems

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_named_group_is_its_one_part_product(self, family, n):
        spec = GroupSpec(family, n)
        product = ProductGroupSpec((spec,))
        assert spec.parts == product.parts == (spec,)
        assert group_order(spec) == group_order(product)
        assert group_generators(spec) == group_generators(product)
        assert enumerate_elements(spec).elements == enumerate_elements(product).elements

    def test_product_enumeration(self):
        spec = ProductGroupSpec((GroupSpec(Family.SYMMETRIC, 2), GroupSpec(Family.CYCLIC, 2)))
        group = enumerate_elements(spec)
        assert group.order == 4
        assert identity(4) in group.elements
        # first block permutes {0,1}, second block permutes {2,3}
        assert (1, 0, 2, 3) in group.elements
        assert (0, 1, 3, 2) in group.elements


class TestGenerators:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_generators_generate_the_group(self, family, n):
        spec = GroupSpec(family, n)
        generated = mulclose(group_generators(spec), n)
        assert generated == set(enumerate_elements(spec).elements)

    def test_alternating_pinned_small_sets(self):
        # two 3-cycles at degree 4 and 5, one at degree 3
        assert len(group_generators(GroupSpec(Family.ALTERNATING, 3))) == 1
        assert len(group_generators(GroupSpec(Family.ALTERNATING, 4))) == 2
        assert len(group_generators(GroupSpec(Family.ALTERNATING, 5))) == 2

    def test_product_generators(self):
        spec = ProductGroupSpec((GroupSpec(Family.SYMMETRIC, 3), GroupSpec(Family.SYMMETRIC, 2)))
        generated = mulclose(group_generators(spec), 5)
        assert generated == set(enumerate_elements(spec).elements)


class TestTupleAction:
    def test_swap(self):
        assert apply_to_tuple((1, 0), (1, 2)) == (2, 1)

    def test_identity(self):
        assert apply_to_tuple(identity(4), (3, 0, 2, 1)) == (3, 0, 2, 1)

    def test_three_cycle_applied_thrice(self):
        cycle = (1, 2, 0)  # 0 -> 1 -> 2 -> 0
        t = (3, 1, 0)
        once = apply_to_tuple(cycle, t)
        assert apply_to_tuple(cycle, apply_to_tuple(cycle, once)) == t

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_to_tuple((0, 1), (1, 2, 3))

    @given(permutation_and_tuple())
    @settings(max_examples=100, deadline=None)
    def test_inverse_round_trip(self, perm_and_tuple):
        perm, t = perm_and_tuple
        assert apply_to_tuple(inverse(perm), apply_to_tuple(perm, t)) == t

    @given(permutation_and_tuple(), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_action_is_compatible_with_composition(self, perm_and_tuple, rnd):
        p, t = perm_and_tuple
        q = tuple(rnd.sample(range(len(p)), len(p)))
        assert apply_to_tuple(compose(p, q), t) == apply_to_tuple(p, apply_to_tuple(q, t))


class TestOrbitCounts:
    def test_cyclic_4_alphabet_4(self):
        assert count_orbits_bruteforce(GroupSpec(Family.CYCLIC, 4), 4) == 70

    @pytest.mark.parametrize("n", (1, 2, 4))
    def test_trivial_counts_everything(self, n):
        assert count_orbits_bruteforce(GroupSpec(Family.TRIVIAL, n), 4) == 4**n

    def test_symmetric_3_multisets(self):
        assert count_orbits_bruteforce(GroupSpec(Family.SYMMETRIC, 3), 4) == 20

    def test_space_cap(self):
        # 4^13 words lie above the constant cap; refused before any buffer
        with pytest.raises(StateSpaceCapExceeded) as err:
            count_orbits_bruteforce(GroupSpec(Family.SYMMETRIC, 13), 4)
        assert (err.value.size, err.value.cap) == (4**13, DEFAULT_SPACE_CAP)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("k", (2, 3, 4))
    def test_matches_cycle_index(self, family, n, k):
        spec = GroupSpec(family, n)
        assert count_orbits_bruteforce(spec, k) == evaluate(cycle_index(spec), k)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_full_element_expansion(self, family, n):
        # third, fully independent route: orbit expansion over complete
        # element lists
        spec = GroupSpec(family, n)
        elements = enumerate_elements(spec).elements
        seen = set()
        count = 0
        for t in itertools.product(range(3), repeat=n):
            if t in seen:
                continue
            count += 1
            seen |= {apply_to_tuple(p, t) for p in elements}
        assert count_orbits_bruteforce(spec, 3) == count

    def test_product_orbit_count(self):
        spec = ProductGroupSpec((GroupSpec(Family.SYMMETRIC, 2), GroupSpec(Family.SYMMETRIC, 2)))
        # independent blocks multiply: 10 multisets per block
        assert count_orbits_bruteforce(spec, 4) == 100


def tuple_action_loop(p, k):
    """The index of apply_to_tuple(p, w) for each base-k word w, one word at
    a time; itertools.product order is index order."""
    words = list(itertools.product(range(k), repeat=len(p)))
    index = {w: i for i, w in enumerate(words)}
    return np.array([index[apply_to_tuple(p, w)] for w in words])


def tuple_action_map(p, k):
    """`tuple_action_loop` in array form: digit j of the image of a word is
    its digit p[j]."""
    n = len(p)
    digits = np.indices((k,) * n).reshape(n, -1)  # row j: digit j of every index
    return (k ** np.arange(n - 1, -1, -1)) @ digits[list(p)]


def index_map_labels(spec, k):
    """Reference scan: one index map per generator and inverse, applied as a
    gather and swept to a fixed point, with no pointer jumps."""
    n = spec.degree
    maps, seen = [], set()
    for g in group_generators(spec):
        for q in (g, inverse(g)):
            if q not in seen and q != identity(n):
                seen.add(q)
                maps.append(tuple_action_map(q, k))
    labels = np.arange(k**n, dtype=np.int64)
    while maps:
        before = labels.copy()
        for m in maps:
            np.minimum(labels, labels[m], out=labels)
        if np.array_equal(labels, before):
            break
    return labels


class TestLabelScan:
    @given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.permutations(range(n))),
           st.sampled_from((2, 3, 4)), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_axis_transpose_matches_index_map(self, p, k, rnd):
        q = tuple(p)
        values = np.array(rnd.sample(range(k ** len(q)), k ** len(q)), dtype=np.uint32)
        permuted = _digit_permuted(values, q, k)
        assert permuted.shape == (k,) * len(q)
        images = tuple_action_loop(q, k)
        assert np.array_equal(permuted.ravel(), values[images])
        assert np.array_equal(tuple_action_map(q, k), images)

    @pytest.mark.parametrize("spec, k", [
        ("C:6", 4), ("S:7", 4), ("A:8", 4), ("D:9", 4), ("S:3xC:4", 4), ("E:5", 4),
        ("S:9", 2), ("D:9", 2), ("C:4xA:4", 2), ("A:7", 3), ("C:7", 3), ("S:3xD:3", 3),
        pytest.param("A:10", 4, marks=pytest.mark.slow),
        pytest.param("S:10", 4, marks=pytest.mark.slow),
    ])
    def test_matches_index_map_fixed_point(self, spec, k):
        spec = parse_group_spec(spec)
        labels = orbit_canonical_labels(spec, k)
        assert labels.dtype == np.uint32
        assert np.array_equal(labels, index_map_labels(spec, k))
        representatives = np.count_nonzero(labels == np.arange(labels.size))
        assert representatives == dimension(spec, k) + 1


class TestQubitMatrices:
    def test_swap_matrix_exact(self):
        u = qubit_permutation_matrix((1, 0))
        expected = np.array([
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ], dtype=np.complex128)
        assert np.array_equal(u, expected)

    def test_identity_permutation(self):
        assert np.array_equal(qubit_permutation_matrix(identity(3)), np.eye(8))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_index_permutation_matches_tuple_action(self, n):
        for p in itertools.permutations(range(n)):
            out = qubit_index_permutation(p)
            assert out.dtype == np.int64
            assert np.array_equal(out, tuple_action_loop(p, 2))

    def test_cap(self):
        from symlie.errors import MatrixSizeCapExceeded
        with pytest.raises(MatrixSizeCapExceeded):
            qubit_permutation_matrix(identity(13))

    def test_cyclic_shift_conjugation(self):
        # a 3-qubit cyclic shift must move sigma_1 from qubit 0 to qubit 2
        shift = (1, 2, 0)
        u = qubit_permutation_matrix(shift)
        lhs = u @ word_matrix((1, 0, 0)) @ u.conj().T
        assert np.allclose(lhs, word_matrix((0, 0, 1)), atol=1e-14)
        assert np.allclose(lhs, word_matrix(apply_to_tuple(shift, (1, 0, 0))), atol=1e-14)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_homomorphism_exhaustive(self, family, n):
        # U_{pq} = U_p U_q and U_{p^-1} = U_p^dagger, checked exactly via the
        # index permutations that define the 0/1 matrices
        elems = enumerate_elements(GroupSpec(family, n)).elements
        index_maps = {p: qubit_index_permutation(p) for p in elems}
        for p in elems:
            assert np.array_equal(index_maps[inverse(p)][index_maps[p]],
                                  np.arange(1 << n))
            for q in elems:
                # (U_p U_q) e_c = U_p e_{pi_q(c)}, so the composed index map
                # is index_maps[p] evaluated at index_maps[q]
                composed = index_maps[p][index_maps[q]]
                assert np.array_equal(index_maps[compose(p, q)], composed)

    def test_homomorphism_dense_small(self):
        elems = enumerate_elements(GroupSpec(Family.SYMMETRIC, 3)).elements
        for p in elems:
            up = qubit_permutation_matrix(p)
            assert np.array_equal(qubit_permutation_matrix(inverse(p)), up.conj().T)
            for q in elems:
                assert np.array_equal(qubit_permutation_matrix(compose(p, q)),
                                      up @ qubit_permutation_matrix(q))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", (6, 7, 8))
    def test_homomorphism_sampled_larger(self, family, n):
        rng = np.random.default_rng(20240 + n)
        elems = enumerate_elements(GroupSpec(family, n)).elements
        for _ in range(100):
            p = elems[rng.integers(len(elems))]
            q = elems[rng.integers(len(elems))]
            composed = qubit_index_permutation(p)[qubit_index_permutation(q)]
            assert np.array_equal(qubit_index_permutation(compose(p, q)), composed)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(2, 6))
    def test_pauli_conjugation_exhaustive(self, family, n):
        # U_alpha P_s U_alpha^dagger == P_{alpha . s} for every group element
        # and every Pauli string
        elems = enumerate_elements(GroupSpec(family, n)).elements
        paulis = np.stack([word_matrix(s)
                           for s in itertools.product(range(4), repeat=n)])
        strings = list(itertools.product(range(4), repeat=n))
        string_index = {s: i for i, s in enumerate(strings)}
        for p in elems:
            idx = qubit_index_permutation(p)
            inv = np.empty_like(idx)
            inv[idx] = np.arange(idx.size)
            # conjugation by a permutation matrix is a row/column relabeling
            conjugated = paulis[:, inv][:, :, inv]
            images = [string_index[apply_to_tuple(p, s)] for s in strings]
            assert np.array_equal(conjugated, paulis[images])
