"""Exact cycle-index construction, evaluation, and dimension formulas."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symlie.combinatorics as comb
from symlie.combinatorics import (
    CycleIndex,
    Family,
    GroupSpec,
    ProductGroupSpec,
    check_term_cap,
    cycle_index,
    dim_energy_preserving,
    dim_invariant_algebra,
    dim_product,
    dim_symmetric_closed_form,
    dimension,
    euler_totient,
    evaluate,
    group_order,
)
from symlie.errors import NonIntegerCount, TermCapExceeded
from symlie.indexing import MAX_CYCLE_INDEX_TERMS
from symlie.permutation_rep import enumerate_elements

ALL_FAMILIES = list(Family)


def brute_orbit_count(elements, n, k):
    """Independent oracle: orbit count by expanding full orbits over tuples."""
    seen = set()
    count = 0
    for t in itertools.product(range(k), repeat=n):
        if t in seen:
            continue
        count += 1
        orbit = {t}
        frontier = [t]
        while frontier:
            u = frontier.pop()
            for p in elements:
                v = tuple(u[p[j]] for j in range(n))
                if v not in orbit:
                    orbit.add(v)
                    frontier.append(v)
        seen |= orbit
    return count


def cycle_type(p):
    """Descending cycle lengths of a permutation given as an image tuple."""
    seen, lengths = set(), []
    for start in range(len(p)):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = p[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def burnside_terms(spec):
    """Z[G] averaged over the enumerated elements: class counts / order."""
    elements = enumerate_elements(spec).elements
    counts = Counter(cycle_type(p) for p in elements)
    return {t: Fraction(c, len(elements)) for t, c in counts.items()}


DIHEDRAL_3 = [
    (0, 1, 2), (1, 2, 0), (2, 0, 1),  # rotations
    (0, 2, 1), (2, 1, 0), (1, 0, 2),  # reflections
]


class TestCycleIndex:
    def test_cyclic_4_worked_example(self):
        ci = cycle_index(GroupSpec(Family.CYCLIC, 4))
        assert ci.terms == {
            (1, 1, 1, 1): Fraction(1, 4),
            (2, 2): Fraction(1, 4),
            (4,): Fraction(1, 2),
        }

    def test_trivial_group(self):
        for n in (1, 3, 7):
            ci = cycle_index(GroupSpec(Family.TRIVIAL, n))
            assert ci.terms == {(1,) * n: Fraction(1)}

    def test_alternating_3_equals_cyclic_3(self):
        # A_3 is C_3; the signed-substitution route must land on the same
        # polynomial (1/3)(a_1^3 + 2 a_3).
        a3 = cycle_index(GroupSpec(Family.ALTERNATING, 3))
        assert a3.terms == {(1, 1, 1): Fraction(1, 3), (3,): Fraction(2, 3)}
        assert a3.terms == cycle_index(GroupSpec(Family.CYCLIC, 3)).terms

    def test_alternating_1_is_trivial(self):
        assert cycle_index(GroupSpec(Family.ALTERNATING, 1)).terms == {(1,): Fraction(1)}

    def test_dihedral_degenerate_sizes(self):
        assert cycle_index(GroupSpec(Family.DIHEDRAL, 1)).terms == \
            cycle_index(GroupSpec(Family.SYMMETRIC, 1)).terms
        assert cycle_index(GroupSpec(Family.DIHEDRAL, 2)).terms == \
            cycle_index(GroupSpec(Family.SYMMETRIC, 2)).terms

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_coefficients_sum_to_one(self, family, n):
        ci = cycle_index(GroupSpec(family, n))
        assert ci.coefficient_sum() == 1
        assert all(c > 0 for c in ci.terms.values())
        assert evaluate(ci, 1) == 1

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_coefficients_are_class_sizes_over_order(self, family, n):
        # every coefficient is (conjugacy-class-ish count)/|G|, so multiplying
        # by the group order must give integers that sum to the order
        ci = cycle_index(GroupSpec(family, n))
        order = group_order(GroupSpec(family, n))
        counts = [c * order for c in ci.terms.values()]
        assert all(x.denominator == 1 for x in counts)
        assert sum(counts) == order


@pytest.mark.parametrize("family,n", [
    *((f, n) for f in (Family.SYMMETRIC, Family.ALTERNATING) for n in range(1, 8)),
    *((f, n) for f in (Family.CYCLIC, Family.DIHEDRAL, Family.TRIVIAL) for n in range(1, 11)),
])
def test_cycle_index_equals_burnside_average(family, n):
    # a second witness: the element-by-element average shares no code with
    # the z_lambda tables or the totient sums
    spec = GroupSpec(family, n)
    assert cycle_index(spec).terms == burnside_terms(spec)


class TestEvaluate:
    def test_cyclic_4_at_4_is_70(self):
        assert evaluate(cycle_index(GroupSpec(Family.CYCLIC, 4)), 4) == 70

    @pytest.mark.parametrize("n", (1, 2, 5))
    def test_trivial_at_4(self, n):
        assert evaluate(cycle_index(GroupSpec(Family.TRIVIAL, n)), 4) == 4**n

    def test_dihedral_3_at_4_matches_brute_force(self):
        expected = brute_orbit_count(DIHEDRAL_3, 3, 4)
        assert expected == 20
        assert evaluate(cycle_index(GroupSpec(Family.DIHEDRAL, 3)), 4) == expected

    def test_corrupted_cycle_index_rejected(self):
        bad = CycleIndex(degree=2, terms={(1, 1): Fraction(1, 3), (2,): Fraction(2, 3)})
        with pytest.raises(NonIntegerCount):
            evaluate(bad, 2)

    def test_builder_not_summing_to_one_rejected(self, monkeypatch):
        # each term alone evaluates to an integer at k = 4, but the sum is 3/4
        monkeypatch.setattr(comb, "_cyclic_terms",
                            lambda n: {(1, 1): Fraction(1, 2), (2,): Fraction(1, 4)})
        with pytest.raises(NonIntegerCount, match="do not sum to 1"):
            cycle_index(GroupSpec(Family.CYCLIC, 2))

    def test_bad_alphabet_rejected(self):
        ci = cycle_index(GroupSpec(Family.CYCLIC, 3))
        with pytest.raises(ValueError):
            evaluate(ci, 0)


class TestDimensions:
    def test_cyclic_4(self):
        assert dim_invariant_algebra(GroupSpec(Family.CYCLIC, 4)) == 69

    @pytest.mark.parametrize("n", (1, 2, 4, 6))
    def test_trivial_is_full_algebra(self, n):
        assert dim_invariant_algebra(GroupSpec(Family.TRIVIAL, n)) == 4**n - 1

    def test_symmetric_2(self):
        assert dim_invariant_algebra(GroupSpec(Family.SYMMETRIC, 2)) == 9

    def test_symmetric_closed_form_examples(self):
        assert dim_symmetric_closed_form(1) == 3
        assert dim_symmetric_closed_form(2) == 9
        assert dim_symmetric_closed_form(4) == 34

    @pytest.mark.parametrize("n", range(1, 41))
    def test_closed_form_equals_cycle_index_route(self, n):
        assert dim_symmetric_closed_form(n) == \
            dim_invariant_algebra(GroupSpec(Family.SYMMETRIC, n))

    @pytest.mark.parametrize("n", range(2, 41))
    def test_alternating_closed_form(self, n):
        # S_n orbits plus the C(4, n) words of n distinct letters, whose S_n
        # orbit splits in two under A_n.  A_1 is trivial and gives 3, not 7.
        assert dim_invariant_algebra(GroupSpec(Family.ALTERNATING, n)) == \
            math.comb(n + 3, 3) - 1 + math.comb(4, n)

    def test_energy_preserving_examples(self):
        assert dim_energy_preserving(1) == 1
        assert dim_energy_preserving(2) == 5
        assert dim_energy_preserving(3) == 19

    @pytest.mark.parametrize("n", range(3, 15))
    def test_coarser_groups_give_larger_algebras(self, n):
        dims = {f: dim_invariant_algebra(GroupSpec(f, n)) for f in Family}
        assert dims[Family.ALTERNATING] >= dims[Family.SYMMETRIC]
        assert dims[Family.CYCLIC] >= dims[Family.DIHEDRAL]

    @pytest.mark.parametrize("n", range(4, 15))
    def test_monotone_chain(self, n):
        dims = {f: dim_invariant_algebra(GroupSpec(f, n)) for f in Family}
        assert dims[Family.TRIVIAL] > dims[Family.CYCLIC] >= dims[Family.DIHEDRAL]
        assert dims[Family.DIHEDRAL] > dims[Family.ALTERNATING] >= dims[Family.SYMMETRIC]


class TestProducts:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_swap_blocks(self, m):
        spec = ProductGroupSpec((GroupSpec(Family.SYMMETRIC, 2),) * m)
        assert dim_product(spec) == 10**m - 1

    @pytest.mark.parametrize("m", range(1, 11))
    def test_two_symmetric_halves(self, m):
        spec = ProductGroupSpec((GroupSpec(Family.SYMMETRIC, m),) * 2)
        from math import comb
        assert dim_product(spec) == comb(m + 3, 3) ** 2 - 1

    def test_single_part_degenerates_to_plain_dimension(self):
        spec = ProductGroupSpec((GroupSpec(Family.SYMMETRIC, 5),))
        assert dim_product(spec) == dim_invariant_algebra(GroupSpec(Family.SYMMETRIC, 5))

    @pytest.mark.parametrize("sizes", [(3, 2, 1), (4, 4), (2, 2, 2, 2)])
    def test_all_trivial_partition_is_unrestricted(self, sizes):
        spec = ProductGroupSpec(tuple(GroupSpec(Family.TRIVIAL, s) for s in sizes))
        assert dim_product(spec) == 4 ** sum(sizes) - 1

    def test_partition_order_enforced(self):
        with pytest.raises(ValueError):
            ProductGroupSpec((GroupSpec(Family.SYMMETRIC, 2), GroupSpec(Family.TRIVIAL, 3)))


class TestTermCap:
    @pytest.fixture(autouse=True)
    def no_tables(self, monkeypatch):
        # an oversized request must be refused before any table is built
        def refuse(n):
            raise AssertionError(f"built the S_{n} table")
        monkeypatch.setattr(comb, "_symmetric_z", refuse)

    @pytest.mark.parametrize("spec", [
        GroupSpec(Family.SYMMETRIC, 500),
        GroupSpec(Family.ALTERNATING, 46),
        ProductGroupSpec((GroupSpec(Family.SYMMETRIC, 500), GroupSpec(Family.SYMMETRIC, 3))),
        ProductGroupSpec((GroupSpec(Family.CYCLIC, 60), GroupSpec(Family.ALTERNATING, 50))),
    ])
    def test_oversized_spec_refused_before_building(self, spec):
        with pytest.raises(TermCapExceeded) as info:
            dimension(spec)
        assert info.value.cap == MAX_CYCLE_INDEX_TERMS
        assert info.value.max_degree == 45

    def test_largest_allowed_degree_passes_the_check(self):
        check_term_cap(GroupSpec(Family.SYMMETRIC, 45))
        check_term_cap(GroupSpec(Family.ALTERNATING, 45))

    def test_small_families_are_not_capped(self):
        for family in (Family.CYCLIC, Family.DIHEDRAL, Family.TRIVIAL):
            check_term_cap(GroupSpec(family, 10**6))

    def test_cap_counts_cycle_types(self, monkeypatch):
        # p(7) = 15 types fit a cap of 15, p(8) = 22 do not
        monkeypatch.setattr(comb, "MAX_CYCLE_INDEX_TERMS", 15)
        check_term_cap(GroupSpec(Family.SYMMETRIC, 7))
        with pytest.raises(TermCapExceeded):
            check_term_cap(GroupSpec(Family.SYMMETRIC, 8))


class TestTotient:
    @pytest.mark.parametrize("d,expected", [(1, 1), (4, 2), (12, 4)])
    def test_examples(self, d, expected):
        assert euler_totient(d) == expected

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_multiplicative_bound(self, d):
        value = euler_totient(d)
        assert 1 <= value <= d
        # phi(d) = d iff d = 1
        assert (value == d) == (d == 1)


class TestSpecValidation:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            GroupSpec(Family.SYMMETRIC, 0)

    def test_family_must_be_enum(self):
        with pytest.raises(ValueError):
            GroupSpec("Symmetric", 3)

    def test_group_orders(self):
        assert group_order(GroupSpec(Family.SYMMETRIC, 4)) == 24
        assert group_order(GroupSpec(Family.ALTERNATING, 4)) == 12
        assert group_order(GroupSpec(Family.ALTERNATING, 1)) == 1
        assert group_order(GroupSpec(Family.DIHEDRAL, 4)) == 8
        assert group_order(GroupSpec(Family.DIHEDRAL, 2)) == 2
        assert group_order(GroupSpec(Family.DIHEDRAL, 1)) == 1
        assert group_order(GroupSpec(Family.CYCLIC, 6)) == 6
        assert group_order(GroupSpec(Family.TRIVIAL, 9)) == 1
