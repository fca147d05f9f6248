"""Cycle-index polynomials and exact dimension formulas for invariant subalgebras.

The dimension of the subalgebra of su(2^N) invariant under a permutation
group G equals the number of G-orbits of length-N words over a 4-letter
alphabet, minus one (the all-identity word is dropped).  The orbit count is
Z[G](k, ..., k) with k = 4, where Z[G] is the cycle index of G.

Z[S_n] sums a^lambda / z_lambda over the cycle types lambda of n, from integer
tables of centralizer orders z_lambda = prod_l l^{m_l} m_l! (Harary and
Palmer, *Graphical Enumeration*, 1973, ch. 2); Z[A_n] keeps the even types,
doubled.  Coefficients are exact `Fraction`s; an evaluation scales them to
the lcm of their denominators and sums Python integers, so no float appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple, Union

from .errors import NonIntegerCount, TermCapExceeded
from .indexing import MAX_CYCLE_INDEX_TERMS, max_partition_degree

__all__ = [
    "Family",
    "GroupSpec",
    "ProductGroupSpec",
    "AnySpec",
    "CycleIndex",
    "cycle_index",
    "check_term_cap",
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
    """Count the integers in [1, d] coprime to d."""
    if d < 1:
        raise ValueError(f"totient needs d >= 1, got {d}")
    return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)


@dataclass(frozen=True)
class CycleIndex:
    """Exact cycle index Z[G]: map from cycle type to rational coefficient.

    The coefficients of a genuine cycle index are positive and sum to 1
    (it is an average over the group), so evaluating at a_i = 1 gives 1.
    """

    degree: int
    terms: Dict[Partition, Fraction]

    def _scaled_value(self, k: int) -> Tuple[int, int]:
        """(D * Z[G](k, ..., k), D), D the lcm of the denominators: each
        coefficient c becomes the integer c * D, so this is one integer sum."""
        d = math.lcm(*(c.denominator for c in self.terms.values()))
        return sum(c.numerator * (d // c.denominator) * k ** len(part)
                   for part, c in self.terms.items()), d

    def coefficient_sum(self) -> Fraction:
        return Fraction(*self._scaled_value(1))


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


def _symmetric_terms(n: int) -> Dict[Partition, Fraction]:
    # Z[S_n] = sum over cycle types of a^lambda / z_lambda.
    return {part: Fraction(1, z) for part, z in _symmetric_z(n).items()}


def _alternating_terms(n: int) -> Dict[Partition, Fraction]:
    # Z[A_n] = Z[S_n]({a_i}) + Z[S_n]({(-1)^(i-1) a_i}): odd types (n - len
    # odd) cancel and even ones double.  This would give 2*a_1 for n = 1, so
    # the trivial A_1 is special-cased.
    if n == 1:
        return {(1,): Fraction(1)}
    return {part: Fraction(2, z) for part, z in _symmetric_z(n).items()
            if (n - len(part)) % 2 == 0}


def _cyclic_terms(n: int) -> Dict[Partition, Fraction]:
    # Z[C_n] = (1/n) sum_{d|n} phi(d) a_d^(n/d); distinct d give distinct types.
    return {(d,) * (n // d): Fraction(euler_totient(d), n)
            for d in range(1, n + 1) if n % d == 0}


def _dihedral_terms(n: int) -> Dict[Partition, Fraction]:
    # Rotation half plus reflection half, the n reflections split evenly over
    # one cycle type (n odd) or two (n even).  n = 1 gives a_1 (= Z[S_1]) and
    # n = 2 gives (a_1^2 + a_2)/2 (= Z[S_2], the faithful {id, (01)} action).
    acc = {part: coeff / 2 for part, coeff in _cyclic_terms(n).items()}
    flips = [(2,) * (n // 2) + (1,)] if n % 2 else [(2,) * (n // 2 - 1) + (1, 1), (2,) * (n // 2)]
    for part in flips:
        acc[part] = acc.get(part, 0) + Fraction(1, 2 * len(flips))
    return acc


def check_term_cap(spec: AnySpec) -> None:
    """Refuse, before any table is built, an S or A part whose cycle index would
    have more than MAX_CYCLE_INDEX_TERMS terms (one per partition of its degree)."""
    max_degree = max_partition_degree(MAX_CYCLE_INDEX_TERMS)
    for part in spec.parts if isinstance(spec, ProductGroupSpec) else (spec,):
        if part.family in (Family.SYMMETRIC, Family.ALTERNATING) and part.size > max_degree:
            raise TermCapExceeded(str(part), MAX_CYCLE_INDEX_TERMS, max_degree)


def cycle_index(spec: GroupSpec) -> CycleIndex:
    """Build the exact cycle index polynomial for a named group family."""
    check_term_cap(spec)
    builders = {
        Family.SYMMETRIC: _symmetric_terms,
        Family.ALTERNATING: _alternating_terms,
        Family.DIHEDRAL: _dihedral_terms,
        Family.CYCLIC: _cyclic_terms,
        Family.TRIVIAL: lambda m: {(1,) * m: Fraction(1)},
    }
    ci = CycleIndex(degree=spec.size, terms=builders[spec.family](spec.size))
    if ci.coefficient_sum() != 1:
        raise NonIntegerCount(f"cycle index coefficients of {spec} do not sum to 1")
    return ci


def evaluate(ci: CycleIndex, k: int) -> int:
    """Substitute a_i = k for every i; the result is an exact orbit count.
    A value that is not a non-negative integer means a corrupted cycle index
    and raises NonIntegerCount."""
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    total, d = ci._scaled_value(k)
    if total % d or total < 0:
        raise NonIntegerCount(f"evaluation at k={k} gave non-integer {Fraction(total, d)}")
    return total // d


def group_order(spec: AnySpec) -> int:
    """Order of the (faithfully represented) group."""
    if isinstance(spec, ProductGroupSpec):
        return math.prod(group_order(part) for part in spec.parts)
    n = spec.size
    if spec.family is Family.SYMMETRIC:
        return math.factorial(n)
    if spec.family is Family.ALTERNATING:
        return max(1, math.factorial(n) // 2)
    if spec.family is Family.DIHEDRAL:
        return n if n <= 2 else 2 * n
    if spec.family is Family.CYCLIC:
        return n
    return 1


def dim_invariant_algebra(spec: GroupSpec, alphabet: int = 4) -> int:
    """Dimension of the G-invariant subalgebra: Z[G](k, ..., k) - 1.

    The default alphabet of 4 counts orbits of Pauli words; other alphabets
    count invariant tensors with indices ranging over k values.
    """
    return evaluate(cycle_index(spec), alphabet) - 1


def dim_product(spec: ProductGroupSpec, alphabet: int = 4) -> int:
    """Dimension for a product group over a partition of the qubits.

    The per-part evaluations are multiplied first and the single global -1
    is applied at the end: identity chains inside a block are allowed, only
    the full-length identity word is excluded.
    """
    check_term_cap(spec)
    return math.prod(evaluate(cycle_index(part), alphabet) for part in spec.parts) - 1


def dimension(spec: AnySpec, alphabet: int = 4) -> int:
    """Invariant-subalgebra dimension of a named group or a product of them."""
    if isinstance(spec, ProductGroupSpec):
        return dim_product(spec, alphabet)
    return dim_invariant_algebra(spec, alphabet)


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
