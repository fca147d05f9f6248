"""Typed errors: every one pickles, and so crosses a process-pool boundary."""

import inspect
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from symlie import errors
from symlie.errors import GateCapExceeded, StateBatchCapExceeded, SymlieError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = [SymlieError, *_subclasses(SymlieError)]


def _instance(cls):
    """An instance with a distinct value per constructor argument: a string
    where the argument is annotated str, an int otherwise."""
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    if params and params[0].kind is inspect.Parameter.VAR_POSITIONAL:
        return cls(f"{cls.__name__} message"), {}
    args = {p.name: (f"{p.name}-value" if p.annotation in (str, "str") else 10 + i)
            for i, p in enumerate(params)}
    return cls(**args), args


def test_every_error_class_is_covered():
    names = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, SymlieError)}
    assert names == {cls.__name__ for cls in ERRORS}
    # the nine whose constructor takes more than a message
    assert sum(bool(_instance(cls)[1]) for cls in ERRORS) == 9


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
