import os

import numpy as np
import pytest

import renormdiff


@pytest.fixture(scope="session")
def package_env() -> dict:
    """The environment of a child process that imports the same package as
    the tests, installed or not."""
    src = os.path.dirname(os.path.dirname(renormdiff.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def filled_empty(monkeypatch):
    """Make np.empty fill what it hands out with 7 until the test undoes its
    monkeypatch; call the fixture with a size for the list of the arrays of
    that many entries made, in order.  An entry a loop never reaches keeps
    the fill."""
    real_empty = np.empty
    made = []

    def empty(shape, *args, **kwargs):
        out = real_empty(shape, *args, **kwargs)
        out.fill(7.0)
        made.append(out)
        return out

    monkeypatch.setattr(np, "empty", empty)
    return lambda size: [out for out in made if out.size == size]
