import pickle

import pytest

from raytail.errors import (
    ConfigError,
    InsufficientExceedancesError,
    OptimizerError,
    QuadratureError,
    RaytailError,
)

# constructor arguments of the classes that take more than a message
_ARGS = {
    ConfigError: ("/reps", "must be a positive integer"),
    QuadratureError: ("quadrature stalled", 1.5e-7),
    InsufficientExceedancesError: (3, 5),
    OptimizerError: ("no convergence", (0.5, 0.25)),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize(
    "cls", dict.fromkeys([RaytailError, *_subclasses(RaytailError)]), ids=lambda c: c.__name__
)
def test_every_typed_error_survives_a_pickle(cls):
    # a typed error raised in a pool worker reaches the caller by pickle
    exc = cls(*_ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
