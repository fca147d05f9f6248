"""Exceptions shared across the package."""


class SymlieError(Exception):
    """Base class for all package-specific errors.

    A subclass whose message is built from fields names them in `_fields`,
    in argument order, and gives `_message`, a `str.format` template over
    them.  Its constructor, this one, stores each field as an attribute and
    the formatted message as the only argument.  It pickles as its type and
    those fields, so it survives the trip from a process-pool worker with
    its type, message and attributes.
    """

    _fields: tuple = ()
    _message = ""

    def __init__(self, *args):
        if not self._fields:
            super().__init__(*args)
            return
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {', '.join(self._fields)}")
        values = dict(zip(self._fields, args))
        self.__dict__.update(values)
        super().__init__(self._message.format(**values))

    def __reduce__(self):
        if not self._fields:
            return super().__reduce__()
        return type(self), tuple(getattr(self, f) for f in self._fields)


class OrderCapExceeded(SymlieError):
    """A group is too large to enumerate element by element."""

    _fields = ("order", "cap")
    _message = "group order {order} exceeds enumeration cap {cap}"


class StateSpaceCapExceeded(SymlieError):
    """A tuple scan or listing over k^N states would exceed its cap."""

    _fields = ("size", "cap")
    _message = "state space of size {size} exceeds cap {cap}"


class MatrixSizeCapExceeded(SymlieError):
    """A dense 2^N x 2^N matrix would exceed the configured cap."""

    _fields = ("dim", "cap")
    _message = "matrix dimension {dim} exceeds cap {cap}"


class ConstraintCapExceeded(SymlieError):
    """The oracle's constraint matrix could store more entries than the cap."""

    _fields = ("entries", "cap")
    _message = "constraint matrix of up to {entries} entries exceeds cap {cap}"


class StateBatchCapExceeded(SymlieError):
    """A variance experiment's dataset states, counted as one batch of
    dataset size x 2^n amplitudes, would exceed the cap
    (`indexing.MAX_STATE_BATCH_BYTES`).  No such batch is built; the same
    cap bounds what a gradient holds (`GradientMemoryCapExceeded`)."""

    _fields = ("qubits", "size", "nbytes", "cap")
    _message = ("{size} states of {qubits} qubits take {nbytes} bytes, "
                "above the state batch cap of {cap} bytes")


class GradientMemoryCapExceeded(SymlieError):
    """A statevector gradient would hold more than the cap
    (`indexing.MAX_STATE_BATCH_BYTES`): a 2^n table per layer and five
    row-chunk batches."""

    _fields = ("ansatz", "qubits", "nbytes", "cap")
    _message = ("a {ansatz} gradient on {qubits} qubits would hold {nbytes} bytes, "
                "above the state batch cap of {cap} bytes")


class SubsetCapExceeded(SymlieError):
    """A variance experiment's sweep over its graphs' vertex subsets would
    exceed the cap."""

    _fields = ("qubits", "size", "subsets", "cap")
    _message = ("{size} graphs of {qubits} vertices have {subsets} vertex subsets, "
                "above the subset cap of {cap}")


class GateCapExceeded(SymlieError):
    """A variance experiment's circuit would have more gates than the cap."""

    _fields = ("ansatz", "qubits", "gates", "cap")
    _message = ("the {ansatz} circuit on {qubits} qubits has {gates} gates, "
                "above the gate cap of {cap}")


class TermCapExceeded(SymlieError):
    """An S or A cycle index would have more terms (cycle types) than the cap."""

    _fields = ("spec", "cap", "max_degree")
    _message = ("cycle index of {spec} exceeds term cap {cap}: "
                "S and A are capped at degree {max_degree}")


class DigitCapExceeded(SymlieError):
    """A dimension would have more decimal digits than can be printed."""

    _fields = ("spec", "cap")
    _message = "the dimension of {spec} has more than {cap} decimal digits"


class NonIntegerCount(SymlieError):
    """A cycle-index evaluation produced a non-integer, i.e. the polynomial is corrupted."""


class IndeterminateRank(SymlieError):
    """Numerical rank could not be decided: no clean gap in the singular values."""


class DatasetGenerationFailed(SymlieError):
    """Balanced graph dataset could not be generated within the retry cap."""
