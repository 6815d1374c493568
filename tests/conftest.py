import os

import pytest

import renormdiff


@pytest.fixture(scope="session")
def package_env() -> dict:
    """The environment of a child process that imports the same package as
    the tests, installed or not."""
    src = os.path.dirname(os.path.dirname(renormdiff.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
