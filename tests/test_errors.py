"""Tests for the exception hierarchy."""

from __future__ import annotations

import math
import pickle

import pytest

from graphtest import errors
from graphtest.errors import AsymmetryError, GraphTestError, NonFiniteEntryError

# Constructor arguments of the errors that take more than a message.
ARGS = {
    NonFiniteEntryError: (1, 2, math.inf),
    AsymmetryError: (0, 3, 0.25),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = [GraphTestError, *sorted(
    {cls for cls in _subclasses(GraphTestError) if cls.__module__ == errors.__name__},
    key=lambda cls: cls.__name__)]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    """Errors raised in a worker process reach the parent through pickle."""
    err = cls(*ARGS.get(cls, ("something went wrong",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert back.code == err.code
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)


def test_attributes_survive_pickle():
    back = pickle.loads(pickle.dumps(NonFiniteEntryError(1, 2, math.nan)))
    assert (back.i, back.j, math.isnan(back.value)) == (1, 2, True)
    back = pickle.loads(pickle.dumps(AsymmetryError(0, 3, 0.25)))
    assert (back.i, back.j, back.difference) == (0, 3, 0.25)
