"""Spans around the public entry points of each renormdiff layer, recorded from outside.

``Tracer.installed()`` replaces each entry point, under the name the program
looks it up by, with a wrapper that records a span, and restores the
originals on exit.  Spans stay in memory until the benchmark writes them out.
A span's self time is its duration minus the time its direct children cover;
calls are sequential, so children never overlap and their durations add.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _arg(index: int, name: str):
    return lambda args, kwargs: kwargs[name] if name in kwargs else args[index]


def _terms_times_points(args, kwargs):
    harmonic_sum = args[0]
    n = kwargs["n"] if "n" in kwargs else args[1]
    return len(harmonic_sum.terms) * int(np.size(n))


# (module, attribute path, span name, self-time metric, work count per call)
TARGETS = (
    ("renormdiff.cli", "run_compare_pipeline", "cli.run_compare_pipeline", "cli.pipeline_self_s", None),
    ("renormdiff.cli", "init_from_amplitude", "oracle.init_from_amplitude", "oracle.init_s", None),
    ("renormdiff.cli", "iterate", "oracle.iterate", "oracle.iterate_s", _arg(4, "n_steps")),
    ("renormdiff.cli", "naive_solution", "perturbation.naive_solution", "perturbation.naive_solution_s", None),
    ("renormdiff.lineardiff", "HarmonicSum.evaluate", "lineardiff.HarmonicSum.evaluate",
     "lineardiff.evaluate_s", _terms_times_points),
    ("renormdiff.asymptotic", "GlobalSolution.eval_discrete", "asymptotic.GlobalSolution.eval_discrete",
     "asymptotic.eval_discrete_s", None),
    ("renormdiff.cli", "assemble_modes", "asymptotic.assemble_modes", "asymptotic.assemble_modes_s", None),
    ("renormdiff.asymptotic", "assemble_modes", "asymptotic.assemble_modes", "asymptotic.assemble_modes_s", None),
    ("renormdiff.asymptotic", "third_harmonic_coefficient", "asymptotic.third_harmonic_coefficient",
     "asymptotic.third_harmonic_s", lambda args, kwargs: 1),
    ("renormdiff.cli", "build_flow", "renormalization.build_flow", "renormalization.build_flow_s", None),
    ("renormdiff.cli", "flow_path", "renormalization.flow_path", "renormalization.flow_path_s", _arg(3, "steps")),
    ("renormdiff.cli", "compare", "analysis.compare", "analysis.compare_s", None),
    ("renormdiff.cli", "zero_crossing_period", "analysis.zero_crossing_period", "analysis.period_envelope_s", None),
    ("renormdiff.cli", "envelope", "analysis.envelope", "analysis.period_envelope_s", None),
)
ROOT_SPAN = "cli.main"
SELF_METRIC = {ROOT_SPAN: "cli.self_s", **{t[2]: t[3] for t in TARGETS}}


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, op id, count].
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str, count: int = 0):
        index = self._begin(name, count)
        try:
            yield
        finally:
            self._end(index)

    def _begin(self, name: str, count: int) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, count])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, count(args, kwargs) if count else 0):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, path, name, _, count in TARGETS:
                owner = importlib.import_module(module)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def op_profile(self, first: int) -> dict:
        """Self time per metric, and work and call counts per span name, of the
        spans recorded from index ``first`` on (one operation)."""
        spans = self.spans[first:]
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _, _ in spans:
            if parent >= first:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _, count) in enumerate(spans, start=first):
            self_s[SELF_METRIC[name]] += end - start - child_time[i]
            counts[name] += count
            calls[name] += 1
        return {"self_s": dict(self_s), "counts": dict(counts), "calls": dict(calls)}
