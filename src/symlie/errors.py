"""Exceptions shared across the package."""


class SymlieError(Exception):
    """Base class for all package-specific errors.

    A subclass whose constructor takes the fields its message is built from
    names them in `_fields`; it pickles as its type and those fields, so
    it survives the trip from a process-pool worker with its type, message
    and attributes.
    """

    _fields: tuple = ()

    def __reduce__(self):
        if not self._fields:
            return super().__reduce__()
        return type(self), tuple(getattr(self, f) for f in self._fields)


class OrderCapExceeded(SymlieError):
    """A group is too large to enumerate element by element."""

    _fields = ("order", "cap")

    def __init__(self, order: int, cap: int):
        self.order = order
        self.cap = cap
        super().__init__(f"group order {order} exceeds enumeration cap {cap}")


class StateSpaceCapExceeded(SymlieError):
    """A tuple scan or listing over k^N states would exceed its cap."""

    _fields = ("size", "cap")

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"state space of size {size} exceeds cap {cap}")


class MatrixSizeCapExceeded(SymlieError):
    """A dense 2^N x 2^N matrix would exceed the configured cap."""

    _fields = ("dim", "cap")

    def __init__(self, dim: int, cap: int):
        self.dim = dim
        self.cap = cap
        super().__init__(f"matrix dimension {dim} exceeds cap {cap}")


class ConstraintCapExceeded(SymlieError):
    """The oracle's constraint matrix could store more entries than the cap."""

    _fields = ("entries", "cap")

    def __init__(self, entries: int, cap: int):
        self.entries = entries
        self.cap = cap
        super().__init__(f"constraint matrix of up to {entries} entries exceeds cap {cap}")


class StateBatchCapExceeded(SymlieError):
    """A variance experiment's dataset states, counted as one batch, would
    exceed the cap (`indexing.MAX_STATE_BATCH_BYTES`)."""

    _fields = ("qubits", "size", "nbytes", "cap")

    def __init__(self, qubits: int, size: int, nbytes: int, cap: int):
        self.qubits = qubits
        self.size = size
        self.nbytes = nbytes
        self.cap = cap
        super().__init__(f"{size} states of {qubits} qubits take {nbytes} bytes, "
                         f"above the state batch cap of {cap} bytes")


class SubsetCapExceeded(SymlieError):
    """A variance experiment's sweep over its graphs' vertex subsets would
    exceed the cap."""

    _fields = ("qubits", "size", "subsets", "cap")

    def __init__(self, qubits: int, size: int, subsets: int, cap: int):
        self.qubits = qubits
        self.size = size
        self.subsets = subsets
        self.cap = cap
        super().__init__(f"{size} graphs of {qubits} vertices have {subsets} vertex subsets, "
                         f"above the subset cap of {cap}")


class GateCapExceeded(SymlieError):
    """A variance experiment's circuit would have more gates than the cap."""

    _fields = ("ansatz", "qubits", "gates", "cap")

    def __init__(self, ansatz: str, qubits: int, gates: int, cap: int):
        self.ansatz = ansatz
        self.qubits = qubits
        self.gates = gates
        self.cap = cap
        super().__init__(f"the {ansatz} circuit on {qubits} qubits has {gates} gates, "
                         f"above the gate cap of {cap}")


class TermCapExceeded(SymlieError):
    """An S or A cycle index would have more terms (cycle types) than the cap."""

    _fields = ("spec", "cap", "max_degree")

    def __init__(self, spec: str, cap: int, max_degree: int):
        self.spec = spec
        self.cap = cap
        self.max_degree = max_degree
        super().__init__(f"cycle index of {spec} exceeds term cap {cap}: "
                         f"S and A are capped at degree {max_degree}")


class DigitCapExceeded(SymlieError):
    """A dimension would have more decimal digits than can be printed."""

    _fields = ("spec", "cap")

    def __init__(self, spec: str, cap: int):
        self.spec = spec
        self.cap = cap
        super().__init__(f"the dimension of {spec} has more than {cap} decimal digits")


class NonIntegerCount(SymlieError):
    """A cycle-index evaluation produced a non-integer, i.e. the polynomial is corrupted."""


class IndeterminateRank(SymlieError):
    """Numerical rank could not be decided: no clean gap in the singular values."""


class DatasetGenerationFailed(SymlieError):
    """Balanced graph dataset could not be generated within the retry cap."""
