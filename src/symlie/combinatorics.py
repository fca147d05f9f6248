"""Cycle-index polynomials and exact dimension formulas for invariant subalgebras.

The dimension of the subalgebra of su(2^N) invariant under a permutation
group G equals the number of G-orbits of length-N words over a 4-letter
alphabet, minus one (the all-identity word is dropped).  The orbit count is
Z[G](k, ..., k) with k = 4, where Z[G] is the cycle index of G.

With every a_i equal to k, an element with j cycles contributes k^j, so a
dimension needs only c_j, the number of elements of G with j cycles: N + 1
integers at most.  S_n has the unsigned Stirling numbers of the first kind,
c(m + 1, j) = m c(m, j) + c(m, j - 1), of which only the last row built is
kept (an ascending sweep builds each row once; a smaller degree starts
again from row 0); A_n the entries with n - j even; C_n phi(d) elements
with n/d cycles per divisor d; D_n those plus its reflections (Harary and
Palmer, *Graphical Enumeration*, 1973, ch. 2).  The orbit count is
sum_j c_j k^j, divided exactly by |G|, so no float or fraction appears.

A named group is a product of one part (`GroupSpec.parts`), so the
order, the caps and the dimension run one loop over the parts of any spec:
the orbits of a product on disjoint blocks are products of its parts'
orbits.

The full polynomial Z[G] is built as well, as integers: |G| and the number
of elements of each cycle type lambda.  S_n has n!/z_lambda elements of type
lambda, from cached tables of centralizer orders z_lambda = prod_l l^{m_l}
m_l!, and A_n its even types.  It lists p(n) types for S_n, so the dimension
route does not use it; the tests check the two against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple, Union

from .errors import DigitCapExceeded, NonIntegerCount, TermCapExceeded
from .indexing import MAX_CYCLE_INDEX_TERMS, MAX_DIMENSION_DIGITS, max_partition_degree

__all__ = [
    "Family",
    "GroupSpec",
    "ProductGroupSpec",
    "AnySpec",
    "CycleIndex",
    "cycle_index",
    "check_term_cap",
    "check_digit_cap",
    "evaluate",
    "dim_invariant_algebra",
    "dim_product",
    "dimension",
    "dim_symmetric_closed_form",
    "dim_energy_preserving",
    "euler_totient",
    "group_order",
]

# A monomial a_{l1} a_{l2} ... a_{lm} is keyed by its cycle type: the sorted
# (descending) tuple of cycle lengths (l1, ..., lm).
Partition = Tuple[int, ...]


class Family(str, Enum):
    """The five named permutation-group families acting on `size` symbols."""

    SYMMETRIC = "S"
    ALTERNATING = "A"
    DIHEDRAL = "D"
    CYCLIC = "C"
    TRIVIAL = "E"


@dataclass(frozen=True)
class GroupSpec:
    """A named group family together with the number of symbols it acts on.

    Dihedral sizes 1 and 2 are accepted: the faithful action on 1 resp. 2
    points collapses to the trivial group resp. {id, (01)}, and all counts
    below use those collapsed groups.
    """

    family: Family
    size: int

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise ValueError(f"unknown group family: {self.family!r}")
        if self.size < 1:
            raise ValueError(f"group size must be >= 1, got {self.size}")

    @property
    def degree(self) -> int:
        return self.size

    @property
    def parts(self) -> Tuple[GroupSpec]:
        """The group as a product of one part, so that every spec has parts."""
        return (self,)

    def __str__(self) -> str:
        return f"{self.family.value}:{self.size}"


@dataclass(frozen=True)
class ProductGroupSpec:
    """A direct product G_1 x ... x G_k acting on consecutive blocks of qubits.

    The block sizes must form a partition of the total degree: non-increasing
    and positive.
    """

    parts: Tuple[GroupSpec, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("product must have at least one part")
        sizes = [p.size for p in self.parts]
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"part sizes must be non-increasing, got {sizes}")

    @property
    def degree(self) -> int:
        return sum(p.size for p in self.parts)

    def __str__(self) -> str:
        return "x".join(str(p) for p in self.parts)


AnySpec = Union[GroupSpec, ProductGroupSpec]


def euler_totient(d: int) -> int:
    """Count the integers in [1, d] coprime to d, as d prod_{p | d} (1 - 1/p)
    over the primes p found by trial division up to sqrt(d)."""
    if d < 1:
        raise ValueError(f"totient needs d >= 1, got {d}")
    phi, rest, p = d, d, 2
    while p * p <= rest:
        if rest % p == 0:
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    return phi - phi // rest if rest > 1 else phi


@dataclass(frozen=True)
class CycleIndex:
    """Exact cycle index Z[G]: `counts` maps a cycle type to the number of
    elements of G of that type; the counts are positive and sum to `order`."""

    degree: int
    order: int
    counts: Dict[Partition, int]

    @property
    def terms(self) -> Dict[Partition, Fraction]:
        """The polynomial's rational coefficients, count / order."""
        return {part: Fraction(c, self.order) for part, c in self.counts.items()}

    def coefficient_sum(self) -> Fraction:
        return Fraction(sum(self.counts.values()), self.order)


@lru_cache(maxsize=None)
def _symmetric_z(n: int) -> Dict[Partition, int]:
    """Centralizer order z_lambda of every cycle type lambda of n.

    A type is a largest part l before a type of n - l with parts <= l;
    prepending l multiplies z by l * (m_l + 1).  Entries come by largest
    part, ascending, so a smaller table is read up to its first part > l.
    """
    if n == 0:
        return {(): 1}
    table: Dict[Partition, int] = {}
    for l in range(1, n + 1):
        for rest, z in _symmetric_z(n - l).items():
            if rest and rest[0] > l:
                break
            table[(l,) + rest] = z * l * (rest.count(l) + 1)
    return table


def _symmetric_counts(n: int) -> Dict[Partition, int]:
    # the conjugacy class of type lambda in S_n has n! / z_lambda elements
    order = math.factorial(n)
    return {part: order // z for part, z in _symmetric_z(n).items()}


def _alternating_counts(n: int) -> Dict[Partition, int]:
    # the even classes of S_n (n - len even); for n = 1 the identity alone
    return {part: c for part, c in _symmetric_counts(n).items() if (n - len(part)) % 2 == 0}


def _divisors(n: int) -> List[int]:
    # the divisors d <= sqrt(n) give the rest as n // d; ascending
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def _reflections(n: int) -> List[Tuple[int, int, int]]:
    # (2-cycles, fixed points, count) of the n reflections of an n-gon, n >= 3:
    # one type for n odd, two types of n/2 reflections each for n even
    if n % 2:
        return [(n // 2, 1, n)]
    return [(n // 2 - 1, 2, n // 2), (n // 2, 0, n // 2)]


def _cyclic_counts(n: int) -> Dict[Partition, int]:
    # phi(d) rotations have order d and type d^(n/d); distinct d give distinct
    # types, keyed by ascending d
    return {(d,) * (n // d): euler_totient(d) for d in _divisors(n)}


def _dihedral_counts(n: int) -> Dict[Partition, int]:
    # The n rotations plus the n reflections.  For n <= 2 the reflections
    # repeat rotations, so the faithful group is C_1 = {id} resp. C_2 = S_2.
    counts = _cyclic_counts(n)
    if n <= 2:
        return counts
    for twos, ones, count in _reflections(n):
        part = (2,) * twos + (1,) * ones
        counts[part] = counts.get(part, 0) + count
    return counts


_STIRLING_ROW = [(1,)]  # the last row built; row n has n + 1 entries


def _stirling_row(n: int) -> Tuple[int, ...]:
    """Unsigned Stirling numbers c(n, j), j = 0..n: the number of elements
    of S_n with j cycles.  Rows come from the one before, by
    c(m + 1, j) = m c(m, j) + c(m, j - 1), in a loop rather than a recursion
    as deep as n.  Only the last row built is kept: a larger degree goes on
    from it, a smaller one starts again from row 0, since the rows up to n
    hold about n^3 log n bits."""
    row = _STIRLING_ROW[0]
    if len(row) > n + 1:
        row = (1,)
    for m in range(len(row) - 1, n):
        row = tuple(m * a + b for a, b in zip(row + (0,), (0,) + row))
    _STIRLING_ROW[0] = row
    return row


def _symmetric_cycles(n: int) -> Dict[int, int]:
    return {j: c for j, c in enumerate(_stirling_row(n)) if c}


def _alternating_cycles(n: int) -> Dict[int, int]:
    # an element with j cycles is even iff n - j is; A_1 keeps the identity
    return {j: c for j, c in _symmetric_cycles(n).items() if (n - j) % 2 == 0}


def _cyclic_cycles(n: int) -> Dict[int, int]:
    return {n // d: euler_totient(d) for d in _divisors(n)}


def _dihedral_cycles(n: int) -> Dict[int, int]:
    counts = _cyclic_cycles(n)
    if n <= 2:
        return counts
    for twos, ones, count in _reflections(n):
        counts[twos + ones] = counts.get(twos + ones, 0) + count
    return counts


def _check_order(spec: GroupSpec, counts: Dict, order: int) -> None:
    # the counts and the order formula share no code, so this checks both
    if sum(counts.values()) != order:
        raise NonIntegerCount(f"cycle index coefficients of {spec} do not sum to 1")


def check_term_cap(spec: AnySpec) -> None:
    """Refuse, before any table is built, an S or A part whose cycle index would
    have more than MAX_CYCLE_INDEX_TERMS terms (one per partition of its degree)."""
    max_degree = max_partition_degree(MAX_CYCLE_INDEX_TERMS)
    for part in spec.parts:
        if part.family in (Family.SYMMETRIC, Family.ALTERNATING) and part.size > max_degree:
            raise TermCapExceeded(str(part), MAX_CYCLE_INDEX_TERMS, max_degree)


_LEAST_UNPRINTABLE = 10**MAX_DIMENSION_DIGITS  # the least int of more digits than the cap


def check_digit_cap(spec: AnySpec, alphabet: int) -> None:
    """Refuse, before any table is built, a spec over an S or A part above the
    term cap, or one whose dimension clearly has more than MAX_DIMENSION_DIGITS
    digits.  The orbit count is at least k^N / |G|, the identity's term alone,
    so its log10 is at least N log10(k) - log10|G|; a spare digit absorbs
    rounding, and `dimension` checks the exact value."""
    check_term_cap(spec)  # first, so that |G| is never a large factorial
    if alphabet > 1 and spec.degree > (
            MAX_DIMENSION_DIGITS + 1 + math.log10(group_order(spec))) / math.log10(alphabet):
        raise DigitCapExceeded(str(spec), MAX_DIMENSION_DIGITS)


def cycle_index(spec: GroupSpec) -> CycleIndex:
    """Build the exact cycle index polynomial for a named group family."""
    check_term_cap(spec)
    builders = {
        Family.SYMMETRIC: _symmetric_counts,
        Family.ALTERNATING: _alternating_counts,
        Family.DIHEDRAL: _dihedral_counts,
        Family.CYCLIC: _cyclic_counts,
        Family.TRIVIAL: lambda m: {(1,) * m: 1},
    }
    ci = CycleIndex(degree=spec.size, order=group_order(spec),
                    counts=builders[spec.family](spec.size))
    _check_order(spec, ci.counts, ci.order)
    return ci


def _orbit_count(cycle_counts: Dict[int, int], order: int, k: int) -> int:
    """sum_j c_j k^j / |G| for c_j elements with j cycles; a value that is
    not a non-negative integer means corrupted counts and raises
    NonIntegerCount."""
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    total = sum(c * k ** j for j, c in cycle_counts.items())
    if total % order or total < 0:
        raise NonIntegerCount(f"evaluation at k={k} gave non-integer {Fraction(total, order)}")
    return total // order


def _orbits(spec: GroupSpec, k: int) -> int:
    """Z[G](k, ..., k) from the number of elements of G with j cycles."""
    builders = {
        Family.SYMMETRIC: _symmetric_cycles,
        Family.ALTERNATING: _alternating_cycles,
        Family.DIHEDRAL: _dihedral_cycles,
        Family.CYCLIC: _cyclic_cycles,
        Family.TRIVIAL: lambda m: {m: 1},
    }
    counts, order = builders[spec.family](spec.size), group_order(spec)
    _check_order(spec, counts, order)
    return _orbit_count(counts, order, k)


def evaluate(ci: CycleIndex, k: int) -> int:
    """Substitute a_i = k for every i; the result is an exact orbit count.
    A value that is not a non-negative integer means a corrupted cycle index
    and raises NonIntegerCount."""
    by_cycles: Dict[int, int] = {}
    for part, c in ci.counts.items():
        by_cycles[len(part)] = by_cycles.get(len(part), 0) + c
    return _orbit_count(by_cycles, ci.order, k)


# |G| of each family on n symbols, D_1 and D_2 collapsed to C_1 and C_2
_ORDERS = {
    Family.SYMMETRIC: math.factorial,
    Family.ALTERNATING: lambda n: max(1, math.factorial(n) // 2),
    Family.DIHEDRAL: lambda n: n if n <= 2 else 2 * n,
    Family.CYCLIC: lambda n: n,
    Family.TRIVIAL: lambda n: 1,
}


def group_order(spec: AnySpec) -> int:
    """Order of the (faithfully represented) group: the product of its parts'."""
    return math.prod(_ORDERS[part.family](part.size) for part in spec.parts)


def dim_invariant_algebra(spec: AnySpec, alphabet: int = 4) -> int:
    """Dimension of the G-invariant subalgebra: Z[G](k, ..., k) - 1.

    The default alphabet of 4 counts orbits of Pauli words; other alphabets
    count invariant tensors with indices ranging over k values.  It is
    evaluated from the element counts by number of cycles, not from Z[G].
    A product's orbits are the products of its parts' orbits, so their
    counts are multiplied and the single -1 comes last: identity chains
    inside a block are allowed, only the full-length identity word is
    excluded.
    """
    check_term_cap(spec)
    return math.prod(_orbits(part, alphabet) for part in spec.parts) - 1


dim_product = dim_invariant_algebra  # a public name: the product examples are stated with it


def dimension(spec: AnySpec, alphabet: int = 4) -> int:
    """Invariant-subalgebra dimension of a named group or a product of them;
    one of more than MAX_DIMENSION_DIGITS digits raises DigitCapExceeded."""
    check_digit_cap(spec, alphabet)
    dim = dim_invariant_algebra(spec, alphabet)
    if dim >= _LEAST_UNPRINTABLE:
        raise DigitCapExceeded(str(spec), MAX_DIMENSION_DIGITS)
    return dim


def dim_symmetric_closed_form(n: int) -> int:
    """Closed form for the fully symmetric group: C(N+3, N) - 1.

    Orbits of Pauli words under S_N are multisets, i.e. weak compositions of
    N into 4 parts.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.comb(n + 3, n) - 1


def dim_energy_preserving(n: int) -> int:
    """Dimension of the subalgebra commuting with the Hamming-weight
    Hamiltonian: sum_i C(N, i)^2 - 1 = C(2N, N) - 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.comb(2 * n, n) - 1
