"""Command-line workbench: simulate, compare, sweep.

Configuration comes from a plain key=value file ('#' starts a comment at the
start of a line or after whitespace) plus command-line flags; flags win.
Every command checks its config at one boundary, in one order: the fields,
the scheme, the step count, then the command's one first-order record, which
refuses a dt too small to resolve the third harmonic; `compare` then checks
a0, and `sweep` runs both checks row by row before its first pass.  Every
command runs at the exact (unit-modulus) characteristic roots:
`root_convention` accepts `exact` alone.  `compare` runs `run_compare_pipeline`:
after the boundary, one pass over the run's guard blocks in which each block
runs the oracle from the first-order bridge (all that `simulate` runs, in one
call) and the amplitude flow, each resumed from the block before, feeds the
oracle's crossings and peaks to its period and limit amplitude, forms its
lam_p^n and the naive, continuum and discrete columns, checked in that order,
with the first two's errors, their running maxima and growth sums, and hands
the block's written rows to the writer.  `sweep` advances one such pass per
row, without rows, all together a guard block at a time, in one block of
error scratch and, on a shared time grid, one block of lam_p^n.  So a
compare holds at most one guard block of the oracle, the flow, the columns
and the errors, plus the writer's chunk, and the oracle's crossing times; a
sweep holds one block plus a few sums and the crossing times per row.  Only
`simulate` holds its whole trajectory, 8 bytes per step.  Output is CSV or
JSON in the format `renormdiff.writer` defines; this module chooses stdout
or a file (_output): a file is written whole or not at all, through a
temporary file renamed over it, and stdout gets the document as it is
formed, so a numerical failure after the first chunk of rows leaves those
rows on stdout, with no summary.  A run prints each warning it raises as
one stderr line, `warning: <message>`.  Exit codes: 0 success, 1 a stdout
reader that closed early, 2 configuration error (an output that cannot be
opened or written included), 3 numerical failure: a diverging or singular
oracle step, an amplitude flow past its guard or a non-finite model column,
each named with the step where it happened; a sweep names its first failing
row's.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import re
import stat
import sys
import warnings
from dataclasses import dataclass

import numpy as np

# `compare`, `envelope` and `zero_crossing_period` are not called here: the
# pipeline feeds their reductions a block at a time.  perfbench/tracing.py
# wraps them as cli's names, so the names stay.
from .analysis import (GrowthFit, Oscillation, compare, envelope, running_max,  # noqa: F401
                       zero_crossing_period)
from .asymptotic import GlobalSolution, assemble_modes, discrete_fundamental, init_from_amplitude
from .lineardiff import RootConvention, Scheme, SchemeParams
from .oracle import (DivergenceError, OracleState, SingularStepError, first_failure, guard_blocks,
                     iterate)
from .perturbation import FirstOrder, Variant, first_order, naive_solution
from .renormalization import build_flow, flow_path, flow_state

__all__ = ["ExperimentConfig", "main", "entry", "run_compare_pipeline"]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    kind: str = "cubic"
    dt: float = 0.01
    eps: float = 0.01
    a0_re: float = 0.5
    a0_im: float = 0.0
    t_max: float = 100.0
    root_convention: str = "exact"
    scheme: str = "standard"
    output_path: str | None = None
    output_format: str = "csv"
    stride: int = 1


# Each field is the flag --<name with dashes> and the config key <name>; its
# type is its default's (output_path, None by default, holds a str).
_TYPES = {f.name: str if f.default is None else type(f.default)
          for f in dataclasses.fields(ExperimentConfig)}
# The values a field accepts, in the order its flag and its error list them.
_CHOICES = {
    "kind": tuple(v.value for v in Variant),
    # First-order roots have |lam_p| > 1, so a comparison at them would measure
    # the roots' growth and not the asymptotics; the field stays for the argv
    # and files that name the exact roots.
    "root_convention": ("exact",),
    "scheme": tuple(s.value for s in Scheme),
    "output_format": ("csv", "json"),
}
_SWEEPABLE = ("dt", "eps", "a0_re")
# The oracle runs about 80 (cubic) to 120 (vdp) ns per step in pure Python,
# two steps per loop iteration, and the amplitude flow 65 (cubic) to 85 (vdp):
# best of 9 at 1e5 steps on a shared 2-vCPU Xeon, where load can double them.
# A compare holds a guard block at a time and 8 B per oracle period: its
# traced peak is 1.5 MB at 1e5 and at 1e6 steps (a cubic CSV compare of 1e6
# steps peaked at 33 MiB RSS), and a sweep holds one block for all its rows
# (a one-row cubic eps sweep of 2e6 steps peaked at 31 MiB, where its
# whole-run lam_p^n table took it to 106 MiB), so 1e8 steps takes minutes but
# no more memory.  `simulate` alone holds its whole trajectory, 8 B per step.
# Larger counts are rejected early.
_MAX_STEPS = 10**8

# A config-file value is read by its field's type; what an int or a float
# field's error says it expects.
_EXPECTS = {int: "an integer", float: "a number"}
# '#' starts a comment at the start of a line or after whitespace, so
# 'output_path = runs#1.csv' keeps its '#'.
_COMMENT = re.compile(r"(?:^|\s)#")


def _parse_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _TYPES[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key} expects {_EXPECTS[_TYPES[key]]}, "
                              f"got {value!r}") from exc
    return out


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    for name, choices in _CHOICES.items():
        if getattr(cfg, name) not in choices:
            raise ConfigError(f"{name} must be one of {choices}, got {getattr(cfg, name)!r}")
    for name, field_type in _TYPES.items():
        if field_type is float and not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(cfg, name)!r}")
    if cfg.dt <= 0.0:
        raise ConfigError("dt must be positive")
    if cfg.t_max <= 0.0:
        raise ConfigError("t_max must be positive")
    if cfg.stride < 1:
        raise ConfigError("stride must be >= 1")
    if cfg.stride > _MAX_STEPS:  # no run has more steps, so it could only pick row 0
        raise ConfigError(f"stride must be at most {_MAX_STEPS}, got {cfg.stride}")
    if cfg.eps < 0.0:
        raise ConfigError("eps must be nonnegative")
    return cfg


def _scheme_params(cfg: ExperimentConfig) -> SchemeParams:
    """The scheme of a config."""
    return SchemeParams(
        dt=cfg.dt,
        eps=cfg.eps,
        root_convention=RootConvention.EXACT_UNIT_MODULUS,
        scheme=Scheme(cfg.scheme),
    )


def _steps(cfg: ExperimentConfig) -> int:
    ratio = cfg.t_max / cfg.dt
    if not ratio <= _MAX_STEPS:
        raise ConfigError(f"t_max/dt must be at most {_MAX_STEPS}, got {ratio!r}")
    n = int(round(ratio))
    if n < 2:
        raise ConfigError("t_max must cover at least two steps")
    return n


def _boundary(cfg: ExperimentConfig) -> tuple[FirstOrder, int]:
    """The checks every command runs first, in one order: the fields, the
    scheme, the step count, the first-order record (first_order refuses a dt
    too small to resolve the third harmonic).  Returns the record and steps."""
    _validate(cfg)
    params, steps = _scheme_params(cfg), _steps(cfg)
    return first_order(Variant(cfg.kind), params), steps


def _checked(cfg: ExperimentConfig) -> tuple[GlobalSolution, int]:
    """The boundary, then compare's check of a0: the solution and the steps."""
    first, steps = _boundary(cfg)
    return GlobalSolution(first, complex(cfg.a0_re, cfg.a0_im)), steps


@contextlib.contextmanager
def _output(cfg: ExperimentConfig):
    """A ``write(pieces)`` of the document's bytes to stdout, decoded, or to
    ``cfg.output_path``, which is opened at the first piece.

    stdout gets each piece as it comes.  A file is written to a temporary
    file beside its symlink-resolved path, which replaces it, with the
    permission bits of a file it replaces, only once the block has run
    without an exception: a failed run leaves no new file and an existing
    one as it was.  A path to anything but a regular file (a device such as
    /dev/null) is written directly.  A file's failed open, write, close or
    rename is a ConfigError (a failed write or close removes the regular
    file it opened); a broken pipe and stdout's failed write are left to
    ``entry``.
    """
    if cfg.output_path is None:
        yield lambda pieces: sys.stdout.writelines(piece.decode() for piece in pieces)
        return
    path, opened = cfg.output_path, None
    target = os.path.realpath(path)
    try:
        existing = os.stat(target)
    except OSError:
        existing = None
    direct = existing is not None and not stat.S_ISREG(existing.st_mode)
    folder, base = os.path.split(target)
    name = path if direct else os.path.join(folder, f".{base}.{os.urandom(6).hex()}.tmp")
    try:
        with contextlib.ExitStack() as stack:

            def write(pieces):
                nonlocal opened
                pieces = iter(pieces)
                first = next(pieces, None)
                if first is None:
                    return
                if opened is None:
                    # "x" for the temporary file: it never truncates one it did not make.
                    fh = stack.enter_context(open(name, "wb" if direct else "xb"))
                    opened = fh, os.fstat(fh.fileno())
                opened[0].writelines(itertools.chain([first], pieces))

            yield write
        if not direct:
            if existing is not None:
                os.chmod(name, stat.S_IMODE(existing.st_mode))
            os.replace(name, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # no partial document is left behind
            if opened and stat.S_ISREG(opened[1].st_mode) and os.path.samestat(opened[1],
                                                                             os.stat(name)):
                os.remove(name)
        if not isinstance(exc, OSError) or isinstance(exc, BrokenPipeError):
            raise
        if opened is None and exc.filename == name:  # the open names the output path
            exc = OSError(exc.errno, exc.strerror, path)
        raise ConfigError(f"cannot write output: {exc}") from exc


def _write_table(cfg: ExperimentConfig, columns: dict, summary: dict | None):
    """The whole document of ``columns`` and ``summary`` to the output (_output)."""
    from .writer import table_bytes  # loaded on the first write, not with the parser

    with _output(cfg) as write:
        write(table_bytes(cfg.output_format, columns, summary))


def cmd_simulate(cfg: ExperimentConfig) -> int:
    first, steps = _boundary(cfg)
    z0, z1 = init_from_amplitude(first, complex(cfg.a0_re, cfg.a0_im))
    traj = iterate(first.kind, first.params, z0, z1, steps)
    rows = np.arange(0, len(traj), cfg.stride)
    columns = {"n": rows, "t": rows * traj.dt, "z": traj.values[:: cfg.stride]}
    _write_table(cfg, columns, summary=None)
    return 0


def _not_finite(name: str, n: int) -> DivergenceError:
    return DivergenceError(f"{name} is not finite at n={n}")


def _model_block(sol: GlobalSolution, z: np.ndarray, f: np.ndarray, path: np.ndarray, lo: int,
                 stride: int | None, work: np.ndarray) -> dict | None:
    """One guard block of the oracle, z(lo), z(lo + 1), ..., and its lam_p^n
    `f`: the naive column, the continuum column and the discrete column at
    the block's rows, every `stride`-th step from step 0 (none at stride
    None), each checked as it is formed (the first two with their errors, in
    the rows of `work`, _error_block), so the first failing one names the
    column.  Returns the rows, in the order the writer writes them, or None
    when the block has none; every other array is freed on return."""
    n = np.arange(lo, lo + z.size)
    picks = np.arange(-lo % stride, z.size, stride) if stride else np.arange(0)
    z_naive = naive_solution(sol.first, sol.a0, n, f)
    err_naive = _error_block("z_naive", z, z_naive, work[0], lo, picks)
    z_continuum = sol.eval_discrete(n, f)
    err_renorm = _error_block("z_renorm_continuum", z, z_continuum, work[1], lo, picks)
    if not picks.size:  # a sweep, or a block with no written row, assembles nothing
        return None
    z_discrete = assemble_modes(sol.first, path[picks], f[picks])
    bad = first_failure(np.isfinite(z_discrete), 0)
    if bad is not None:
        raise _not_finite("z_renorm_discrete", lo + picks[bad])
    steps = n[picks]
    return {"n": steps, "t": steps * sol.first.params.dt, "z_oracle": z[picks],
            "z_naive": z_naive[picks], "z_renorm_discrete": z_discrete,
            "z_renorm_continuum": z_continuum[picks], "err_naive": err_naive,
            "err_renorm": err_renorm}


def _error_block(name, z, model, err, lo, picks) -> np.ndarray:
    """|z - model| over a block, formed in `err` after its entry 0, the
    running maximum of the blocks before (0 before the first): returns its
    rows at `picks`, then forms the running maximum in place from entry 0
    and carries its last entry there.  Raises at the first non-finite step
    of the column `name`, looked for only when the block's last entry is not
    finite.

    The oracle is guarded to |z| <= 1e8, so an error is non-finite exactly
    where its model is; a running maximum carries nan and inf, so while
    every earlier block is finite, its first non-finite entry is the error's.
    """
    block = err[: z.size + 1]
    out = block[1:]
    np.subtract(z, model, out=out)
    np.abs(out, out=out)
    rows = out[picks]
    running_max(block, out=block)
    if not np.isfinite(out[-1]):
        raise _not_finite(name, first_failure(np.isfinite(out), lo))
    err[0] = out[-1]
    return rows


def _spans(params: SchemeParams):
    """lam_p^n on the time grid of `params`, a guard block at a time: the
    call for the steps lo .. hi - 1 forms them the first time it is made and
    hands the same array to the calls for that block that follow, so the
    passes on one grid share it.  Only the last block's span is held."""
    last = [None, None]

    def span(lo: int, hi: int) -> np.ndarray:
        if last[0] != (lo, hi):
            last[:] = (lo, hi), discrete_fundamental(params, np.arange(lo, hi))
        return last[1]

    return span


class _Pass:
    """One pipeline's pass over the guard blocks of its run, a block at a
    time, each call of `advance` resuming from the state the block before
    left: the oracle (OracleState), the amplitude flow (FlowState), the
    oracle's crossings and peaks (Oscillation), the errors' growth fit
    (GrowthFit) and their two running maxima.  `span` gives each block's
    lam_p^n (_spans); `write_rows` takes each block's rows, every
    `stride`-th step (without it no row and no discrete column is formed).

    A failure wins as it would if each stage ran whole before the next: the
    oracle's at once, a flow overflow once the oracle has run to the last
    step, a model column's once the flow has too; the rows and the model
    columns stop at the first.  `error` is the failure that wins so far;
    `block`, the block the next call runs, is None once the pass is done, at
    its last step or at the oracle's failure.
    """

    def __init__(self, sol: GlobalSolution, steps: int, span, write_rows=None, stride: int = 1):
        first = sol.first
        self.sol, self.span, self.write_rows = sol, span, write_rows
        self.stride = stride if write_rows else None
        self.flow = build_flow(first)
        self.state = flow_state(self.flow, sol.a0)
        self.oracle = OracleState(0, *init_from_amplitude(first, sol.a0))
        self.shape = Oscillation(first.params.dt, keep=5)
        self.fit = GrowthFit(first.params.dt, steps + 1, 2)
        self.maxima = (0.0, 0.0)  # each error's running maximum, carried between blocks
        self.steps, self.overflow, self.failure = steps, None, None
        self._blocks = guard_blocks(0, steps + 1)
        self.block = next(self._blocks)

    @property
    def error(self) -> Exception | None:
        return self.overflow or self.failure

    def advance(self, work: np.ndarray) -> None:
        """Run `block`: z(lo) .. z(hi) and A(lo) .. A(hi), one step past it,
        then, while nothing has failed, its model columns and errors, in the
        rows of the shared scratch `work`, and its rows to `write_rows`."""
        (lo, hi), first = self.block, self.sol.first
        self.block = next(self._blocks, None)
        last = min(hi, self.steps) - lo
        try:
            # By keyword: perfbench/tracing.py reads the step counts from them.
            z = iterate(first.kind, first.params, self.oracle, None, n_steps=last).values
        except (DivergenceError, SingularStepError) as exc:
            self.overflow, self.failure, self.block = None, exc, None
            return
        if self.overflow is None:
            try:
                path = flow_path(self.flow, self.state, steps=last)
            except OverflowError as exc:
                self.overflow = exc
        if self.error:
            return
        z = z[: hi - lo]
        self.shape.add(z)
        work[:, 0] = self.maxima
        try:
            rows = _model_block(self.sol, z, self.span(lo, hi), path, lo, self.stride, work)
        except DivergenceError as exc:
            self.failure = exc
            return
        self.maxima = tuple(work[:, 0])
        self.fit.add(lo, work[0, 1 : z.size + 1], work[1, 1 : z.size + 1])
        del path, z  # the block's arrays are freed before its rows are written
        if rows is not None:
            self.write_rows(rows)

    def summary(self) -> dict:
        slopes = self.fit.slopes()
        summary = {"max_err_naive": float(self.maxima[0]),
                   "max_err_renorm": float(self.maxima[1]),
                   "slope_err_naive": slopes[0], "slope_err_renorm": slopes[1],
                   "period_oracle": None, "limit_amplitude_oracle": None}
        with contextlib.suppress(ValueError):  # too few crossings
            summary["period_oracle"] = self.shape.period().mean_period
        with contextlib.suppress(ValueError):  # the mean of the last five peaks, or of all
            summary["limit_amplitude_oracle"] = float(self.shape.envelope()[-5:, 1].mean())
        return summary


def _run_passes(passes: list[_Pass]) -> None:
    """Advance `passes` together, one guard block at a time, all in one
    block of error scratch, until the first of them, in order, that does not
    run clean to its end is done: raises its failure."""
    work = np.zeros((2, max(p.block[1] for p in passes) + 1))
    while True:
        first = next((p for p in passes if p.block or p.error), None)
        if first is None or first.block is None:
            break
        for p in passes:
            if p.block:
                p.advance(work)
    if first is not None:
        raise first.error


def run_compare_pipeline(cfg: ExperimentConfig, write_rows=None,
                         checked: tuple | None = None) -> dict:
    """Oracle vs naive vs renormalized trajectories, plus summary statistics.

    Returns the summary, which covers every step, and hands the rows the
    writer writes, every `stride`-th step, to `write_rows` one guard block
    at a time, as soon as the block is formed: a dict of the block's columns
    in the writer's order, n, t, z_oracle, z_naive, z_renorm_discrete,
    z_renorm_continuum, err_naive and err_renorm.  Without `write_rows` no
    row and no discrete column is formed.  At stride 1 the summary is
    recomputable from the rows.

    One pass over the guard blocks of the run (_Pass), all reading its one
    first-order record: each block runs the oracle from the first-order
    bridge and the amplitude flow through its steps and one more, each
    resumed from the state the block before left, then feeds the oracle's
    crossings and peaks, forms its lam_p^n, the model columns and the
    errors (_model_block), the errors' running maxima and their growth fit.
    So a compare holds one guard block of each, and the crossing times.
    `checked` is `_checked(cfg)` from a caller that ran it already: the
    solution, whose first-order record every stage reads, and the steps.
    Raises ConfigError for a config that `main` would refuse.
    """
    sol, steps = checked or _checked(cfg)
    run = _Pass(sol, steps, _spans(sol.first.params), write_rows, cfg.stride)
    _run_passes([run])
    return run.summary()


def cmd_compare(cfg: ExperimentConfig) -> int:
    from .writer import Document  # loaded on the first write, not with the parser

    doc = Document(cfg.output_format)
    with _output(cfg) as write:
        summary = run_compare_pipeline(cfg, lambda rows: write(doc.rows(rows)))
        write(doc.end(summary))
    if cfg.output_path is not None:
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def cmd_sweep(cfg: ExperimentConfig, param: str, values: list[float]) -> int:
    if param not in _SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {_SWEEPABLE}, got {param!r}")
    row_cfgs = [dataclasses.replace(cfg, **{param: value}) for value in values]
    # Each row passes compare's checks, in order, before any pass runs.
    checked = [_checked(row_cfg) for row_cfg in row_cfgs]
    # The rows' passes advance together, a guard block at a time, in one
    # block of error scratch: the sweep holds one block and each row's few
    # sums, not a block per row.  eps and a0_re keep the time grid (dt,
    # t_max, scheme), so each block's lam_p^n is formed once for all rows;
    # each dt gives a grid of its own, whose row forms its own.  A pass
    # keeps the summary alone: it keeps no rows and assembles no discrete
    # column, but still runs the flow, so its guard fails a row as it fails
    # compare.  The first failing row, in row order, is the one named.
    grid = None if param == "dt" else _spans(checked[0][0].first.params)
    passes = [_Pass(sol, steps, grid or _spans(sol.first.params)) for sol, steps in checked]
    _run_passes(passes)
    summaries = [p.summary() for p in passes]
    columns = {"value": list(values), **{key: [s[key] for s in summaries] for key in summaries[0]}}
    _write_table(cfg, columns, summary={"param": param})
    return 0


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key=value config file; flags override")
    for name, field_type in _TYPES.items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=field_type,
                            choices=_CHOICES.get(name))


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renormdiff",
        description="Exact, naive, and renormalized solutions of weakly "
        "nonlinear second-order difference schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("simulate", "run the exact iteration and write the trajectory"),
        ("compare", "compare oracle, naive, and renormalized trajectories"),
        ("sweep", "repeat the comparison over a list of parameter values"),
    ):
        p = sub.add_parser(name, help=doc)
        # argparse (before 3.13) reads "-3e-05" after a flag as an option.
        p._negative_number_matcher = _NEGATIVE_NUMBER
        _add_config_flags(p)
        if name == "sweep":
            p.add_argument("--param", required=True, help="one of " + ", ".join(_SWEEPABLE))
            p.add_argument("--values", required=True,
                           help="comma-separated list of numbers")
    return parser


def _resolve_config(ns: argparse.Namespace) -> ExperimentConfig:
    values = _parse_config_file(ns.config) if ns.config else {}
    values.update((name, getattr(ns, name)) for name in _TYPES if getattr(ns, name) is not None)
    return ExperimentConfig(**values)


def _warning_line(message, *_):
    """Print a warning to stderr as one line, `warning: <message>`."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # Every run shows its warnings, whatever ran before it in the process.
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        return _run(ns)


def _run(ns: argparse.Namespace) -> int:
    try:
        cfg = _resolve_config(ns)
        if ns.command == "simulate":
            return cmd_simulate(cfg)
        if ns.command == "compare":
            return cmd_compare(cfg)
        values_raw = ns.values.split(",")
        for i, v in enumerate(values_raw, start=1):
            if not v.strip():
                raise ConfigError(f"--values entry {i} of {ns.values!r} is empty")
        try:
            values = [float(v) for v in values_raw]
        except ValueError as exc:
            raise ConfigError(f"bad sweep value: {exc}") from exc
        return cmd_sweep(cfg, ns.param, values)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, SingularStepError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """The console script: ``main`` on ``sys.argv``, exiting with its code.

    A reader that closes the pipe early (``renormdiff simulate | head -1``)
    ends the run with exit 1 and no traceback; any other failed write of
    stdout (a full device) with exit 2 and the message of a failed write of
    the output file.  Either way stdout is pointed at devnull, so the flush
    at interpreter exit cannot fail again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        code = 1 if isinstance(exc, BrokenPipeError) else 2
        if code == 2:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)
