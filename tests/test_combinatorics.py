"""Exact cycle-index construction, evaluation, and dimension formulas."""

import inspect
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symlie.combinatorics as comb
from symlie import cli
from symlie.combinatorics import (
    CycleIndex,
    Family,
    GroupSpec,
    ProductGroupSpec,
    check_digit_cap,
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
from symlie.errors import DigitCapExceeded, NonIntegerCount, TermCapExceeded
from symlie.indexing import MAX_CYCLE_INDEX_TERMS, MAX_DIMENSION_DIGITS
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


def burnside_counts(spec):
    """Number of enumerated elements of each cycle type."""
    return Counter(cycle_type(p) for p in enumerate_elements(spec).elements)


def burnside_terms(spec):
    """Z[G] averaged over the enumerated elements: class counts / order."""
    counts = burnside_counts(spec)
    order = sum(counts.values())
    return {t: Fraction(c, order) for t, c in counts.items()}


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


ENUMERABLE_SPECS = [
    *((f, n) for f in (Family.SYMMETRIC, Family.ALTERNATING) for n in range(1, 8)),
    *((f, n) for f in (Family.CYCLIC, Family.DIHEDRAL, Family.TRIVIAL) for n in range(1, 11)),
]


@pytest.mark.parametrize("family,n", ENUMERABLE_SPECS)
def test_cycle_index_equals_burnside_average(family, n):
    # a second witness: the element-by-element average shares no code with
    # the z_lambda tables or the totient sums
    spec = GroupSpec(family, n)
    assert cycle_index(spec).terms == burnside_terms(spec)


@pytest.mark.parametrize("family,n", ENUMERABLE_SPECS)
def test_cycle_index_counts_equal_burnside_counter(family, n):
    # the stored integers are the element counts themselves, not merely
    # proportional to them, and they add up to the order formula
    spec = GroupSpec(family, n)
    ci = cycle_index(spec)
    assert ci.counts == burnside_counts(spec)
    assert sum(ci.counts.values()) == ci.order == group_order(spec)


DIFFERENTIAL_ALPHABETS = (1, 2, 3, 4, 9, 16)


@pytest.mark.parametrize("family,n", [
    *((f, n) for f in (Family.SYMMETRIC, Family.ALTERNATING) for n in range(1, 46)),
    *((f, n) for f in (Family.CYCLIC, Family.DIHEDRAL) for n in range(1, 201)),
    *((Family.TRIVIAL, n) for n in range(1, 21)),
])
def test_dimension_equals_cycle_index_evaluation(family, n):
    # the counts by number of cycles share no table with Z[G], which lists
    # every cycle type
    spec = GroupSpec(family, n)
    ci = cycle_index(spec)
    for k in DIFFERENTIAL_ALPHABETS:
        assert dimension(spec, k) == evaluate(ci, k) - 1


@pytest.mark.parametrize("text", [
    "S:20xA:12xC:6", "D:9xC:8xS:7xA:6xE:5", "A:45xS:45", "C:200xD:200xS:3xA:3xE:1",
    "E:7xD:6xC:6xA:5xS:4xD:3xC:2xA:1xS:1",
])
def test_product_dimension_equals_cycle_index_evaluations(text):
    spec = cli.parse_group_spec(text)
    for k in DIFFERENTIAL_ALPHABETS:
        assert dimension(spec, k) == \
            math.prod(evaluate(cycle_index(part), k) for part in spec.parts) - 1


def test_stirling_rows_need_no_deep_recursion(monkeypatch):
    # rows are built in a loop, so a degree past the term cap, as a lifted
    # cap would reach, needs no recursion as deep as the degree
    monkeypatch.setattr(comb, "_STIRLING_ROW", [(1,)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        row = comb._stirling_row(300)
    finally:
        sys.setrecursionlimit(limit)
    assert len(row) == 301 and row[0] == 0 and row[300] == 1
    assert sum(row) == math.factorial(300)
    assert sum(row[::2]) == sum(row[1::2])  # as many even as odd permutations


def test_stirling_cache_holds_one_row(monkeypatch):
    # only the last row built is kept, so the cache stays one row however
    # large the degree; a smaller degree starts again from row 0
    monkeypatch.setattr(comb, "_STIRLING_ROW", [(1,)])
    rows = [(1,)]
    for m in range(200):
        prev = rows[-1]
        rows.append(tuple(m * a + b for a, b in zip(prev + (0,), (0,) + prev)))
    assert comb._stirling_row(200) == rows[200]
    assert comb._STIRLING_ROW == [rows[200]]
    assert [comb._stirling_row(m) for m in range(201)] == rows
    assert comb._stirling_row(7) == rows[7] == (0, 720, 1764, 1624, 735, 175, 21, 1)
    assert comb._STIRLING_ROW == [rows[7]]


@pytest.mark.parametrize("argv, lines", [
    (("dim", "S", "--sweep", "1..45", "--format", "csv"), 46),
    (("dim", "A:45"), 1),
    (("scaling-table", "--max-qubits", "45", "--format", "csv"), 46),
])
def test_dimensions_build_no_cycle_type_table(capsys, monkeypatch, argv, lines):
    def refuse(arg):
        raise AssertionError(f"listed the cycle types of {arg}")
    monkeypatch.setattr(comb, "_symmetric_z", refuse)
    monkeypatch.setattr(comb, "cycle_index", refuse)
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out.count("\n") == lines


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
        # (a_1^2 + 2 a_2) / 3 at k = 2 is 8/3
        bad = CycleIndex(degree=2, order=3, counts={(1, 1): 1, (2,): 2})
        with pytest.raises(NonIntegerCount):
            evaluate(bad, 2)

    def test_builder_not_summing_to_one_rejected(self, monkeypatch):
        # three elements for the order-2 group C_2; evaluation alone would
        # not notice, since (2 * 4^2 + 4) / 2 = 18 is an integer
        monkeypatch.setattr(comb, "_cyclic_counts", lambda n: {(1, 1): 2, (2,): 1})
        with pytest.raises(NonIntegerCount, match="do not sum to 1"):
            cycle_index(GroupSpec(Family.CYCLIC, 2))

    @pytest.mark.parametrize("family, builder", [
        (Family.SYMMETRIC, "_symmetric_cycles"),
        (Family.ALTERNATING, "_alternating_cycles"),
        (Family.CYCLIC, "_cyclic_cycles"),
        (Family.DIHEDRAL, "_dihedral_cycles"),
    ])
    def test_count_table_off_by_one_rejected(self, monkeypatch, family, builder):
        # one identity too many: the counts no longer sum to the group order
        real = getattr(comb, builder)

        def off_by_one(n):
            counts = real(n)
            counts[n] += 1
            return counts
        monkeypatch.setattr(comb, builder, off_by_one)
        with pytest.raises(NonIntegerCount, match="do not sum to 1"):
            dimension(GroupSpec(family, 6))

    def test_count_table_not_divisible_rejected(self, monkeypatch):
        # D_3 with a reflection counted as a rotation: still 6 elements, but
        # 2^3 + 2 * 2^2 + 3 * 2^1 = 22 does not divide by 6
        monkeypatch.setattr(comb, "_dihedral_cycles", lambda n: {3: 1, 2: 2, 1: 3})
        with pytest.raises(NonIntegerCount, match="non-integer"):
            dimension(GroupSpec(Family.DIHEDRAL, 3), 2)

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

    @pytest.mark.parametrize("n", range(1, 46))
    def test_closed_form_equals_cycle_index_route(self, n):
        assert dim_symmetric_closed_form(n) == \
            dim_invariant_algebra(GroupSpec(Family.SYMMETRIC, n))

    @pytest.mark.parametrize("n", range(2, 46))
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
        monkeypatch.setattr(comb, "_stirling_row", refuse)

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

    def test_dimension_routes_refuse_directly(self):
        # the Stirling rows would be cheap, but the refusals stay those of Z[G]
        with pytest.raises(TermCapExceeded):
            dim_invariant_algebra(GroupSpec(Family.SYMMETRIC, 46))
        with pytest.raises(TermCapExceeded):
            dim_product(ProductGroupSpec((GroupSpec(Family.ALTERNATING, 46),
                                          GroupSpec(Family.CYCLIC, 3))))

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


class TestDigitCap:
    @pytest.mark.parametrize("family, alphabet, last", [
        (Family.CYCLIC, 4, 7148),
        (Family.DIHEDRAL, 4, 7149),
        (Family.TRIVIAL, 4, 7142),
        (Family.CYCLIC, 2, 14298),
        (Family.DIHEDRAL, 3, 9021),
        (Family.TRIVIAL, 16, 3571),
    ])
    def test_last_printable_degree(self, family, alphabet, last):
        # the last degree whose dimension has at most MAX_DIMENSION_DIGITS
        # digits passes the cheap bound and is returned; the next is refused
        check_digit_cap(GroupSpec(family, last), alphabet)
        assert len(str(dimension(GroupSpec(family, last), alphabet))) <= MAX_DIMENSION_DIGITS
        with pytest.raises(DigitCapExceeded) as info:
            dimension(GroupSpec(family, last + 1), alphabet)
        assert info.value.cap == MAX_DIMENSION_DIGITS

    @pytest.mark.parametrize("spec, alphabet", [
        (GroupSpec(Family.DIHEDRAL, 10**400), 2),
        (ProductGroupSpec((GroupSpec(Family.TRIVIAL, 8000), GroupSpec(Family.SYMMETRIC, 3))), 4),
    ])
    def test_bound_refuses_before_any_cycle_index(self, monkeypatch, spec, alphabet):
        def refuse(part, *_):
            raise AssertionError(f"built the cycle index of {part}")
        monkeypatch.setattr(comb, "cycle_index", refuse)
        monkeypatch.setattr(comb, "_orbits", refuse)
        with pytest.raises(DigitCapExceeded):
            dimension(spec, alphabet)

    def test_alphabets_below_two_are_not_bounded(self):
        # k^N / |G| is at most 1, and a non-positive alphabet is refused by
        # `evaluate` with its own message
        check_digit_cap(GroupSpec(Family.CYCLIC, 10**9), 1)
        with pytest.raises(ValueError, match="alphabet size must be >= 1"):
            dimension(GroupSpec(Family.CYCLIC, 4), 0)


class TestTotient:
    @pytest.mark.parametrize("d,expected", [(1, 1), (4, 2), (12, 4)])
    def test_examples(self, d, expected):
        assert euler_totient(d) == expected

    def test_cyclic_counts_equal_the_divisor_scan(self):
        # every d <= n is tried and phi(d) counted by gcds; this covers the
        # totient of every d <= 300, since d divides itself, and the
        # ascending-d key order
        for n in range(1, 301):
            want = {(d,) * (n // d): sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)
                    for d in range(1, n + 1) if n % d == 0}
            assert list(comb._cyclic_counts(n).items()) == list(want.items()), n

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
