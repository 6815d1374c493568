"""Command-line workbench: simulate, compare, sweep.

Configuration comes from a plain key=value file ('#' starts a comment at the
start of a line or after whitespace) plus command-line flags; flags win.
Every command checks its config at one boundary, in one order: the fields,
the scheme, the step count; `sweep` checks every row there before its first
pipeline.  Every command runs at the exact (unit-modulus) characteristic
roots: `root_convention` accepts `exact` alone.  `compare` runs
`run_compare_pipeline`, whose stages are the boundary, the oracle from the
first-order bridge (all that `simulate` runs), the amplitude flow, one pass
over the oracle's guard blocks that forms each block's lam_p^n and the
naive, continuum and discrete columns, checked in that order, with the first
two's errors, and the summary; only the rows written are kept.
Output is CSV or JSON in the format `renormdiff.writer` defines; this module
chooses stdout or a file.  Exit codes: 0 success, 1 a stdout reader that
closed early, 2 configuration error (an output path that cannot be opened
included), 3 numerical failure: a diverging or singular oracle step, an
amplitude flow past its guard or a non-finite model column, each named with
the step where it happened.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

# `compare` is not called here: the pipeline forms its errors a block at a
# time with compare's running_max and growth_slope.  perfbench/tracing.py
# wraps cli.compare, so the name stays.
from .analysis import compare, envelope, growth_slope, running_max, zero_crossing_period  # noqa: F401
from .asymptotic import GlobalSolution, assemble_modes, discrete_fundamental, init_from_amplitude
from .lineardiff import RootConvention, Scheme, SchemeParams
from .oracle import (DivergenceError, SingularStepError, Trajectory, first_failure, guard_blocks,
                     iterate)
from .perturbation import FirstOrder, Variant, first_order, naive_solution
from .renormalization import build_flow, flow_path

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
# The oracle runs about 110 (cubic) to 140 (vdp) ns per step in pure Python,
# and the amplitude flow 80 (cubic) to 100 (vdp): best of 9 at 1e5 steps on a
# shared 2-vCPU Xeon, where load can double them.  At 1e6 steps a compare's
# traced peak is 88 B per step at stride 1 and 39 at stride 10, either kind
# (a cubic CSV compare peaked at 114 and 67 MiB RSS), so 1e8 steps takes
# minutes and about 9 GB, or 3.9 GB at stride 10; larger counts are rejected
# early.
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


def _boundary(cfg: ExperimentConfig) -> tuple[Variant, SchemeParams, int]:
    """The checks every command runs first, in one order: the fields, the
    scheme, the step count.  Returns the kind, the scheme and the steps."""
    _validate(cfg)
    return Variant(cfg.kind), _scheme_params(cfg), _steps(cfg)


def _write_table(cfg: ExperimentConfig, columns: dict, summary: dict | None):
    """The document to stdout, decoded, or to ``cfg.output_path`` as bytes."""
    from .writer import table_bytes, table_text  # loaded on the first write, not with the parser

    if cfg.output_path is None:
        sys.stdout.writelines(table_text(cfg.output_format, columns, summary))
        return
    try:
        fh = open(cfg.output_path, "wb")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    with fh:
        fh.writelines(table_bytes(cfg.output_format, columns, summary))


def _oracle_stage(cfg: ExperimentConfig, kind: Variant, params: SchemeParams, steps: int,
                  first: FirstOrder) -> Trajectory:
    """The exact iteration from the first-order bridge at the initial
    amplitude (with the first-order record `first`), steps + 1 values."""
    z0, z1 = init_from_amplitude(kind, complex(cfg.a0_re, cfg.a0_im), params, first)
    return iterate(kind, params, z0, z1, steps)


def cmd_simulate(cfg: ExperimentConfig) -> int:
    kind, params, steps = _boundary(cfg)
    traj = _oracle_stage(cfg, kind, params, steps, first_order(kind, params))
    rows = np.arange(0, len(traj), cfg.stride)
    columns = {"n": rows, "t": rows * traj.dt, "z": traj.values[:: cfg.stride]}
    _write_table(cfg, columns, summary=None)
    return 0


def _not_finite(name: str, n: int) -> DivergenceError:
    return DivergenceError(f"{name} is not finite at n={n}")


def _blocks(steps: int, rows: np.ndarray):
    """The oracle's guard blocks [lo, hi) covering 0..steps, each with the
    span of `rows` (sorted) that falls in it and those rows' places in the
    block.  A block's lam_p^n and model columns are reduced to the written
    rows and the errors' running maxima before the next block is formed."""
    for lo, hi in guard_blocks(0, steps + 1):
        first, last = rows.searchsorted((lo, hi))
        yield lo, hi, slice(first, last), rows[first:last] - lo


def _model_stage(sol: GlobalSolution, steps: int, oracle: Trajectory,
                 fundamental: np.ndarray | None, rows: np.ndarray) -> tuple[dict, tuple]:
    """The flow path of `sol`'s scheme from its amplitude, then the three
    model columns and the naive and continuum errors against the oracle, in
    one pass over blocks of steps (_model_block) that all read the
    pipeline's one first-order record, `sol.first`.

    Of the path only its values at `rows` are kept: the path itself at
    stride 1, a compact copy otherwise, none in a sweep, whose flow runs for
    its guard alone.  `fundamental` is a sweep's shared lam_p^n, sliced per
    block, or None, and each block forms its own.  Only the columns at
    `rows` and the two errors' running maxima, held whole for the summary's
    slopes, outlive a block; the path is freed on return.
    """
    # By keyword: perfbench/tracing.py reads the step count from `steps`.
    path = flow_path(build_flow(sol.kind, sol.params, sol.first), sol.a0, steps=steps)
    if rows.size <= steps:  # not every step is written
        path = path[rows]
    # In the order the writer writes them, after n, t and z_oracle.
    kept = {name: np.empty(rows.size) for name in
            ("z_naive", "z_renorm_discrete", "z_renorm_continuum", "err_naive", "err_renorm")}
    running = (np.empty(steps + 1), np.empty(steps + 1))
    for block in _blocks(steps, rows):
        _model_block(sol, oracle, fundamental, path, block, kept, running)
    return kept, running


def _model_block(sol: GlobalSolution, oracle: Trajectory, fundamental: np.ndarray | None,
                 path: np.ndarray, block: tuple, kept: dict, running: tuple):
    """One block of _model_stage: lam_p^n, then the naive column, the
    continuum column and the discrete column at the block's written rows,
    each checked as it is formed (the first two with their errors,
    _error_block), so the first failing one names the column.  The rows and
    maxima go into `kept` and `running`; the arrays are freed on return,
    before the next block's are made."""
    lo, hi, at, picks = block
    n = np.arange(lo, hi)
    f = discrete_fundamental(sol.params, n) if fundamental is None else fundamental[lo:hi]
    z = oracle.values[lo:hi]
    z_naive = naive_solution(sol.kind, sol.a0, sol.params, n, f, sol.first)
    _error_block("z_naive", z, z_naive, running[0], block, kept["err_naive"])
    kept["z_naive"][at] = z_naive[picks]
    z_continuum = sol.eval_discrete(n, f)
    _error_block("z_renorm_continuum", z, z_continuum, running[1], block, kept["err_renorm"])
    kept["z_renorm_continuum"][at] = z_continuum[picks]
    if picks.size:  # a sweep, or a block with no written row, assembles nothing
        z_discrete = assemble_modes(sol.kind, sol.params, path[at], f[picks], sol.first)
        bad = first_failure(np.isfinite(z_discrete), 0)
        if bad is not None:
            raise _not_finite("z_renorm_discrete", lo + picks[bad])
        kept["z_renorm_discrete"][at] = z_discrete


def _error_block(name, z, model, maxima, block, kept):
    """|z - model| over a block, formed in its running maximum `maxima`: its
    rows at the block's picks go to `kept`, then the running maximum is
    carried in place from the previous block's last entry.  Raises at the
    first non-finite step of the column `name`, looked for only when the
    block's last entry is not finite.

    The oracle is guarded to |z| <= 1e8, so an error is non-finite exactly
    where its model is; a running maximum carries nan and inf, so while
    every earlier block is finite, its first non-finite entry is the error's.
    """
    lo, hi, at, picks = block
    err = maxima[lo:hi]
    np.subtract(z, model, out=err)
    np.abs(err, out=err)
    kept[at] = err[picks]
    carried = maxima[max(lo - 1, 0) : hi]
    running_max(carried, out=carried)
    if not np.isfinite(err[-1]):
        raise _not_finite(name, first_failure(np.isfinite(err), lo))


def _summary_stage(oracle: Trajectory, running: tuple) -> dict:
    """The summary: each error's maximum and growth slope, from its running
    maximum (overwritten by the fit), and the oracle's period and limit amplitude."""
    naive, renorm = running
    summary = {
        "max_err_naive": float(naive[-1]),
        "max_err_renorm": float(renorm[-1]),
        "slope_err_naive": growth_slope(oracle.dt, naive),
        "slope_err_renorm": growth_slope(oracle.dt, renorm),
        "period_oracle": None,
        "limit_amplitude_oracle": None,
    }
    try:
        summary["period_oracle"] = zero_crossing_period(oracle).mean_period
    except ValueError:
        pass
    try:
        peaks = envelope(oracle)
        tail = peaks[-min(5, peaks.shape[0]) :, 1]
        summary["limit_amplitude_oracle"] = float(tail.mean())
    except ValueError:
        pass
    return summary


def run_compare_pipeline(cfg: ExperimentConfig, fundamental: np.ndarray | None = None,
                         columns: bool = True, sol: GlobalSolution | None = None) -> tuple[dict, dict]:
    """Oracle vs naive vs renormalized trajectories, plus summary statistics.

    Returns (columns, summary).  The columns hold the rows the writer writes,
    every `stride`-th step, or none when `columns` is false (a sweep reads
    the summary alone, and no discrete column is assembled); the summary
    covers every step either way, and at stride 1 it is recomputable from
    the rows.  The flow runs whole before the pass over blocks, which keeps
    its path at the written rows alone.  `fundamental` is lam_p^n on the
    time grid when the caller shares it between pipelines; without it each
    block forms its own span.  Either way the bytes are the same.  `sol` is
    the config's GlobalSolution, from a caller that checked it already, with
    the first-order record that every stage reads.  Raises ConfigError for a
    config that `main` would refuse.
    """
    kind, params, steps = _boundary(cfg)
    # Checks a0, and derives the record, before the oracle runs.
    sol = sol or GlobalSolution(kind, params, complex(cfg.a0_re, cfg.a0_im))
    oracle = _oracle_stage(cfg, kind, params, steps, sol.first)
    rows = np.arange(0, steps + 1, cfg.stride) if columns else np.arange(0)
    kept, running = _model_stage(sol, steps, oracle, fundamental, rows)
    summary = _summary_stage(oracle, running)
    return {"n": rows, "t": rows * oracle.dt, "z_oracle": oracle.values[rows], **kept}, summary


def cmd_compare(cfg: ExperimentConfig) -> int:
    columns, summary = run_compare_pipeline(cfg)
    _write_table(cfg, columns, summary)
    if cfg.output_path is not None:
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def cmd_sweep(cfg: ExperimentConfig, param: str, values: list[float]) -> int:
    if param not in _SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {_SWEEPABLE}, got {param!r}")
    row_cfgs = [dataclasses.replace(cfg, **{param: value}) for value in values]
    # Every row passes the boundary, then compare's check of a0, before any
    # pipeline runs; each row's solution, with its record, goes to its pipeline.
    checked = [_boundary(row_cfg) for row_cfg in row_cfgs]
    sols = [GlobalSolution(kind, params, complex(row_cfg.a0_re, row_cfg.a0_im))
            for row_cfg, (kind, params, _) in zip(row_cfgs, checked)]
    # eps and a0_re keep the time grid (dt, t_max, scheme), so its lam_p^n is
    # built once and the blocks slice it; each dt gives a grid of its own,
    # formed a block at a time inside its pipeline.
    fundamental = None
    if param != "dt":
        _, params, steps = checked[0]
        fundamental = discrete_fundamental(params, np.arange(steps + 1))
    # The summary alone: the pipeline keeps no rows and assembles no discrete
    # column, but still runs the flow, so its guard fails a row as it fails
    # compare.
    summaries = [run_compare_pipeline(row_cfg, fundamental, False, sol)[1]
                 for row_cfg, sol in zip(row_cfgs, sols)]
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


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
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
    ends the run with exit 1 and no traceback: stdout is pointed at devnull,
    so the flush at interpreter exit cannot fail again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
