"""The benchmark's tracer can still wrap and restore every entry point it names.

``perfbench/tracing.py`` wraps each target for the duration of
``Tracer().installed()``; a refactor that moves or renames one fails here
rather than crashing a traced benchmark run.  The benchmark's modules are
loaded from their files and left untouched.
"""

import importlib
import importlib.util
import operator
import sys
from pathlib import Path

import pytest

from renormdiff import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load(path):
    spec = importlib.util.spec_from_file_location("perfbench_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under perfbench/
    # Registered while it runs: a dataclass looks its module up by name.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        del sys.modules[spec.name]
    return module


def test_installed_wraps_and_restores_every_target():
    tracing = _load(TRACING)

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


@pytest.mark.parametrize("name", sorted(_load(WORKLOADS).WORKLOADS))
def test_every_workload_traces_its_oracle_and_flow_steps(tmp_path, name):
    # A layer the run never calls has no span, and the benchmark reports its
    # per-step time as null, which fails the output check of a traced run.
    workload = _load(WORKLOADS).WORKLOADS[name]
    tracing = _load(TRACING)
    scale = 0.01
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span(tracing.ROOT_SPAN):
        code = cli.main(workload.argv(0, str(tmp_path / "out"), scale))
    assert code == 0
    counts = tracer.op_profile(0)["counts"]
    assert counts.get("oracle.iterate") == workload.steps_per_op(scale)
    assert counts.get("renormalization.flow_path") == workload.steps_per_op(scale)
