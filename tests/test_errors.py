import inspect
import pickle

import pytest

from diffeo2d import errors

EXCEPTIONS = sorted(
    (cls for _, cls in inspect.getmembers(errors, inspect.isclass)
     if issubclass(cls, BaseException) and cls.__module__ == errors.__name__),
    key=lambda cls: cls.__name__,
)

# Arguments of the classes whose constructors take more than a message; any
# other class that did would fail to construct below.
EXTRA_ARGS = {
    errors.RankError: {"rank": 2},
    errors.PgmParseError: {"offset": 17},
    errors.ConvergenceError: {"residual": 0.25, "iterations": 40, "index": 3},
}


@pytest.mark.parametrize("cls", EXCEPTIONS, ids=lambda cls: cls.__name__)
def test_exception_survives_pickle(cls):
    # A worker process hands its failures to the caller through pickle.
    err = cls("bad input", **EXTRA_ARGS.get(cls, {}))
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is cls
    assert str(copy) == str(err)
    assert copy.args == err.args
    for name in ("rank", "offset", "residual", "iterations", "index"):
        assert getattr(copy, name, None) == getattr(err, name, None)
    assert vars(copy) == vars(err)



@pytest.mark.parametrize("index", [None, 0, 5])
def test_convergence_error_within_keeps_its_numbers(index):
    # A failure inside a larger solve is reported with the larger solve's
    # prefix and the inner failure's residual and iterations.
    inner = errors.ConvergenceError("square root did not converge", residual=0.5,
                                    iterations=7, index=2)
    outer = inner.within("root chain failed at level 3", index)
    assert type(outer) is errors.ConvergenceError
    assert str(outer) == "root chain failed at level 3: square root did not converge"
    assert (outer.residual, outer.iterations, outer.index) == (0.5, 7, index)
    copy = pickle.loads(pickle.dumps(outer))
    assert (str(copy), copy.residual, copy.iterations, copy.index) == (
        str(outer), 0.5, 7, index)
