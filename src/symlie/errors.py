"""Exceptions shared across the package."""


class SymlieError(Exception):
    """Base class for all package-specific errors."""


class OrderCapExceeded(SymlieError):
    """A group is too large to enumerate element by element."""

    def __init__(self, order: int, cap: int):
        self.order = order
        self.cap = cap
        super().__init__(f"group order {order} exceeds enumeration cap {cap}")


class StateSpaceCapExceeded(SymlieError):
    """A tuple scan over k^N states would exceed the configured cap."""

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"state space of size {size} exceeds cap {cap}")


class MatrixSizeCapExceeded(SymlieError):
    """A dense 2^N x 2^N matrix would exceed the configured cap."""

    def __init__(self, dim: int, cap: int):
        self.dim = dim
        self.cap = cap
        super().__init__(f"matrix dimension {dim} exceeds cap {cap}")


class TermCapExceeded(SymlieError):
    """An S or A cycle index would have more terms (cycle types) than the cap."""

    def __init__(self, spec: str, cap: int, max_degree: int):
        self.spec = spec
        self.cap = cap
        self.max_degree = max_degree
        super().__init__(f"cycle index of {spec} exceeds term cap {cap}: "
                         f"S and A are capped at degree {max_degree}")


class NonIntegerCount(SymlieError):
    """A cycle-index evaluation produced a non-integer, i.e. the polynomial is corrupted."""


class IndeterminateRank(SymlieError):
    """Numerical rank could not be decided: no clean gap in the singular values."""


class DatasetGenerationFailed(SymlieError):
    """Balanced graph dataset could not be generated within the retry cap."""
