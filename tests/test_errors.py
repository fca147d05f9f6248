"""Typed errors: every one pickles, and so crosses a process-pool boundary."""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from symlie import errors
from symlie.errors import (ConstraintCapExceeded, DigitCapExceeded, GateCapExceeded,
                          GradientMemoryCapExceeded, MatrixSizeCapExceeded, OrderCapExceeded,
                          StateBatchCapExceeded, StateSpaceCapExceeded, SubsetCapExceeded,
                          SymlieError, TermCapExceeded)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = [SymlieError, *_subclasses(SymlieError)]


# the fields that name a circuit or a group spec; every other field is a count
TEXT_FIELDS = {"ansatz", "spec"}


def _instance(cls):
    """An instance with a distinct value per field, in `_fields` order: a
    string for a text field, an int otherwise.  A class without fields
    takes a message."""
    if not cls._fields:
        return cls(f"{cls.__name__} message"), {}
    args = {name: (f"{name}-value" if name in TEXT_FIELDS else 10 + i)
            for i, name in enumerate(cls._fields)}
    return cls(*args.values()), args


def test_every_error_class_is_covered():
    names = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, SymlieError)}
    assert names == {cls.__name__ for cls in ERRORS}
    # the ten whose constructor takes more than a message
    assert sum(bool(_instance(cls)[1]) for cls in ERRORS) == 10


# each fielded error's message for fixed field values, as its own
# hand-written constructor formatted it
MESSAGES = [
    (OrderCapExceeded, (3628800, 100000),
     "group order 3628800 exceeds enumeration cap 100000"),
    (StateSpaceCapExceeded, (67108864, 16777216),
     "state space of size 67108864 exceeds cap 16777216"),
    (MatrixSizeCapExceeded, (8192, 4096),
     "matrix dimension 8192 exceeds cap 4096"),
    (ConstraintCapExceeded, (50331648, 33554432),
     "constraint matrix of up to 50331648 entries exceeds cap 33554432"),
    (StateBatchCapExceeded, (21, 50, 1677721600, 1073741824),
     "50 states of 21 qubits take 1677721600 bytes, "
     "above the state batch cap of 1073741824 bytes"),
    (SubsetCapExceeded, (23, 50, 419430400, 268435456),
     "50 graphs of 23 vertices have 419430400 vertex subsets, "
     "above the subset cap of 268435456"),
    (GateCapExceeded, ("cyclic", 4, 2000000000, 131072),
     "the cyclic circuit on 4 qubits has 2000000000 gates, above the gate cap of 131072"),
    (TermCapExceeded, ("S:46", 100000, 45),
     "cycle index of S:46 exceeds term cap 100000: S and A are capped at degree 45"),
    (DigitCapExceeded, ("C:7149", 4300),
     "the dimension of C:7149 has more than 4300 decimal digits"),
    (GradientMemoryCapExceeded, ("cyclic", 24, 11005853696, 1073741824),
     "a cyclic gradient on 24 qubits would hold 11005853696 bytes, "
     "above the state batch cap of 1073741824 bytes"),
]


def test_every_fielded_error_has_a_pinned_message():
    fielded = {cls for cls in ERRORS if cls._fields}
    assert {cls for cls, _, _ in MESSAGES} == fielded


@pytest.mark.parametrize("cls, args, text", MESSAGES, ids=[cls.__name__ for cls, _, _ in MESSAGES])
def test_message(cls, args, text):
    error = cls(*args)
    assert str(error) == text
    assert error.args == (text,)
    assert tuple(getattr(error, name) for name in cls._fields) == args


@pytest.mark.parametrize("cls", [cls for cls in ERRORS if cls._fields],
                         ids=lambda cls: cls.__name__)
def test_wrong_field_count_is_a_type_error(cls):
    with pytest.raises(TypeError):
        cls(*range(len(cls._fields) + 1))


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    error, args = _instance(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) and copy.args == error.args
    for name, value in args.items():
        assert getattr(copy, name) == value


def _raise_cap_error(kind):
    if kind == "gate":
        raise GateCapExceeded("cyclic", 30, 200_000, 2**17)
    raise StateBatchCapExceeded(21, 50, 50 * 16 << 21, 2**30)


@pytest.mark.parametrize("kind", ["gate", "batch"])
def test_cap_error_crosses_the_pool_with_its_type(kind):
    # an error that does not unpickle in the parent breaks the whole pool
    # (BrokenProcessPool) instead of reaching the caller; the pool is made
    # as the variance experiment makes its own
    with ProcessPoolExecutor(max_workers=1) as pool:
        future = pool.submit(_raise_cap_error, kind)
        with pytest.raises(SymlieError) as caught:
            future.result(timeout=60)
    with pytest.raises(SymlieError) as expected:
        _raise_cap_error(kind)
    assert type(caught.value) is type(expected.value)
    assert str(caught.value) == str(expected.value)
