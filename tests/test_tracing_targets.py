"""The benchmark's tracer can still wrap and restore every entry point it names.

``perfbench/tracing.py`` wraps each target for the duration of
``Tracer().installed()``; a refactor that moves or renames one fails here
rather than crashing a traced benchmark run.  The tracer module is loaded from
its file and left untouched.
"""

import importlib
import importlib.util
import operator
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_installed_wraps_and_restores_every_target():
    tracing = _load_tracing()

    def current():
        return [
            operator.attrgetter(path)(importlib.import_module(module))
            for module, path, *_ in tracing.TARGETS
        ]

    before = current()
    with tracing.Tracer().installed():
        during = current()
    after = current()
    assert [wrapper.__wrapped__ for wrapper in during] == before
    assert all(a is b for a, b in zip(after, before, strict=True))
