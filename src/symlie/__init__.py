"""symlie: dimensions and bases of symmetry-restricted subalgebras of su(2^N).

Three independent routes to the same numbers keep each other honest:
exact cycle-index combinatorics, exhaustive orbit scans under explicit
permutation groups, and dense commutant linear algebra.  A statevector
simulator reproduces the gradient-variance scaling of permutation-, cyclic-
and unconstrained circuit ansatzes on a graph-classification task.
"""

from .combinatorics import (
    CycleIndex,
    Family,
    GroupSpec,
    ProductGroupSpec,
    cycle_index,
    dim_energy_preserving,
    dim_invariant_algebra,
    dim_product,
    dimension,
    dim_symmetric_closed_form,
    euler_totient,
    evaluate,
    group_order,
)
from .errors import (
    ConstraintCapExceeded,
    DatasetGenerationFailed,
    DigitCapExceeded,
    GradientMemoryCapExceeded,
    IndeterminateRank,
    MatrixSizeCapExceeded,
    NonIntegerCount,
    OrderCapExceeded,
    StateBatchCapExceeded,
    StateSpaceCapExceeded,
    SubsetCapExceeded,
    SymlieError,
    TermCapExceeded,
)

__version__ = "0.1.0"
