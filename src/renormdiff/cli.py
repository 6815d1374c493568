"""Command-line workbench: simulate, compare, sweep.

Configuration comes from a plain key=value file ('#' starts a comment at the
start of a line or after whitespace) plus command-line flags; flags win.
Every command checks its config at one boundary, in one order: the fields,
the scheme, the step count; `sweep` checks every row there before its first
pipeline.  `compare` runs `run_compare_pipeline`, whose stages are the
boundary, the oracle (all that `simulate` runs), the model columns, and the
error columns with the summary.  Output is CSV (17-significant-digit floats,
byte-stable across runs) or JSON mirroring the same field names.  Exit codes:
0 success, 1 a stdout reader that closed early, 2 configuration error (an
output path that cannot be opened included), 3 numerical failure: a diverging
or singular oracle step, an amplitude flow past its guard or a non-finite
model column, each named with the step where it happened.
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

from .analysis import compare, envelope, zero_crossing_period
from .asymptotic import GlobalSolution, assemble_modes, discrete_fundamental
from .lineardiff import RootConvention, Scheme, SchemeParams
from .oracle import (
    DivergenceError,
    SingularStepError,
    Trajectory,
    init_from_amplitude,
    iterate,
)
from .perturbation import Variant, naive_solution
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
    "root_convention": sorted(c.value for c in RootConvention),
    "scheme": tuple(s.value for s in Scheme),
    "output_format": ("csv", "json"),
}
_SWEEPABLE = ("dt", "eps", "a0_re")
# The oracle runs about 110 (cubic) to 140 (vdp) ns per step in pure Python,
# and the amplitude flow 80 (cubic) to 100 (vdp): best of 9 at 1e5 steps on a
# shared 2-vCPU Xeon, where load can double them.  A cubic CSV compare peaked
# at 83.7 MiB at 5e5 steps and at 243.9 MiB at 2e6 steps, about 112 B per
# step, so 1e8 steps takes minutes and about 11 GB; larger counts are rejected
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
    if cfg.eps < 0.0:
        raise ConfigError("eps must be nonnegative")
    return cfg


def _scheme_params(cfg: ExperimentConfig) -> SchemeParams:
    """The scheme of a config."""
    return SchemeParams(
        dt=cfg.dt,
        eps=cfg.eps,
        root_convention=RootConvention(cfg.root_convention),
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_text(value) -> str:
    """The JSON literal of one float or None cell: ``repr`` floats, ``NaN``,
    ``null``."""
    return json.dumps(None if value is None else float(value))


# Rows formatted per chunk: a chunk's text is about 0.6 MB of compare CSV or
# 1.1 MB of JSON, so a long run is never held in memory as one document.  A
# chunk also holds its byte matrix (0.8 MB of compare CSV, 1.4 MB of JSON)
# and, while g17 renders one float column into it, about 1.5 MB of kernel
# scratch (350 B per value).
_CHUNK_ROWS = 4096


# Bytes of a cell of each array kind: the g17 layout (``g17.WIDTH``), or the
# widest int64 or uint64 text (``g17.INT_WIDTH``).
_CELL_WIDTH = {"f": 24, "i": 20, "u": 20}


def _cells(part, fmt: str) -> np.ndarray:
    """The cells of one column slice as rows of NUL-padded ASCII bytes.

    Each cell, NULs dropped, is ``_fmt`` (CSV) or ``_json_text`` (JSON) of
    its value.  Float arrays go through the ``g17`` kernel of the format,
    which calls that function for the values it does not cover; integer
    arrays through ``g17.render_integers``, whose text is the same in both
    formats; anything else through the function one value at a time.
    """
    text = _fmt if fmt == "csv" else _json_text
    kind = part.dtype.kind if isinstance(part, np.ndarray) else None
    if kind in _CELL_WIDTH:
        from . import g17  # only an array column builds its tables

        if kind != "f":
            return g17.render_integers(part, _fmt)
        return (g17.render if fmt == "csv" else g17.render_shortest)(part, text)
    cells = np.array([text(v).encode("ascii") for v in part])
    return cells.view(np.uint8).reshape(len(part), cells.itemsize)


def _rows(parts: list, fmt: str, before: list, end: str) -> str:
    """The text of one chunk: per row, ``before[i]`` and the cell of column
    ``i`` for every column in order, then ``end``.

    The rows are one byte matrix, filled with the constant text of a row and
    then with each column's cells, and the text is the matrix with its NULs
    dropped.  Array columns are rendered into the matrix one at a time; any
    other column is formatted first, for its width.
    """
    widths = [_CELL_WIDTH.get(part.dtype.kind) if isinstance(part, np.ndarray) else None
              for part in parts]
    ready = [None if width else _cells(part, fmt) for part, width in zip(parts, widths)]
    widths = [width or cells.shape[1] for width, cells in zip(widths, ready)]
    template = bytearray()
    starts = []
    for lead, width in zip(before, widths):
        template += lead.encode("ascii")
        starts.append(len(template))
        template += bytes(width)
    template += end.encode("ascii")
    rows = len(parts[0])
    text = bytearray(rows * len(template))
    table = np.frombuffer(text, np.uint8).reshape(rows, len(template))
    table[:] = np.frombuffer(template, np.uint8)
    for part, cells, width, at in zip(parts, ready, widths, starts):
        table[:, at : at + width] = _cells(part, fmt) if cells is None else cells
    return text.translate(None, b"\0").decode("ascii")


def _table_text(cfg: ExperimentConfig, columns: dict, summary: dict | None):
    """Yield the CSV or JSON document in pieces of at most ``_CHUNK_ROWS`` rows.

    The CSV columns are written in the order of ``columns``, the JSON ones
    sorted by name; the rows of a chunk are one byte matrix (``_rows``).  The
    pieces join to exactly what ``",".join`` of ``_fmt`` cells per row, or
    ``json.dumps(doc, indent=1, sort_keys=True)`` of ``{"rows": [...],
    "summary": ...}``, would give.
    """
    names = list(columns)
    if cfg.output_format == "csv":
        head = ",".join(names) + "\n"
        before = [""] + [","] * (len(names) - 1)
        end, trim = "\n", 0
        tail = "" if summary is None else "# summary = " + json.dumps(summary, sort_keys=True) + "\n"
    else:
        names.sort()
        head = '{\n "rows": [\n'
        before = [("  {\n" if i == 0 else ",\n") + f"   {json.dumps(name)}: "
                  for i, name in enumerate(names)]
        # Every row ends in ",\n"; the last chunk drops the one after the last row.
        end, trim = "\n  },\n", 2
        tail = "\n ]"
        if summary is not None:
            nested = json.dumps(summary, indent=1, sort_keys=True).replace("\n", "\n ")
            tail += ',\n "summary": ' + nested
        tail += "\n}\n"
    yield head
    stride = cfg.stride
    span = _CHUNK_ROWS * stride
    n_rows = len(columns[names[0]])
    for lo in range(0, n_rows, span):
        parts = [columns[name][lo : lo + span : stride] for name in names]
        text = _rows(parts, cfg.output_format, before, end)
        yield text if lo + span < n_rows else text[: len(text) - trim]
        del text  # not held while the next chunk is built
    yield tail


def _write_table(cfg: ExperimentConfig, columns: dict, summary: dict | None):
    pieces = _table_text(cfg, columns, summary)
    if cfg.output_path is None:
        sys.stdout.writelines(pieces)
        return
    try:
        fh = open(cfg.output_path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    with fh:
        fh.writelines(pieces)


def _oracle_stage(cfg: ExperimentConfig, kind: Variant, params: SchemeParams, steps: int) -> Trajectory:
    """The exact iteration from the initial amplitude, steps + 1 values."""
    z0, z1 = init_from_amplitude(complex(cfg.a0_re, cfg.a0_im), params)
    return iterate(kind, params, z0, z1, steps)


def cmd_simulate(cfg: ExperimentConfig) -> int:
    traj = _oracle_stage(cfg, *_boundary(cfg))
    columns = {"n": np.arange(len(traj)), "t": traj.times, "z": traj.values}
    _write_table(cfg, columns, summary=None)
    return 0


def _require_finite(name: str, model: np.ndarray) -> None:
    finite = np.isfinite(model)
    if not finite.all():
        raise DivergenceError(f"{name} is not finite at n={int(finite.argmin())}")


def _model_stage(cfg: ExperimentConfig, kind: Variant, params: SchemeParams, steps: int,
                 sol: GlobalSolution, fundamental: np.ndarray | None) -> dict:
    """The naive and the two renormalized columns on n = 0..steps, each checked
    finite.  lam_p^n (unless a sweep shares it) and the flow path are freed on
    return: held through the analysis, they would lift the peak memory above
    the naive sum's."""
    a0 = complex(cfg.a0_re, cfg.a0_im)
    n = np.arange(steps + 1)
    # lam_p^n once, for the naive expansion and both renormalized forms: the
    # discrete form of the continuum amplitude and the flow's.
    if fundamental is None:
        fundamental = discrete_fundamental(params, n)
    z_naive = naive_solution(kind, a0, params, n, fundamental)
    # Checked at once: an overflowing naive sum stops before the renormalized forms.
    _require_finite("z_naive", z_naive)
    z_renorm_continuum = sol.eval_discrete(n, fundamental)
    # By keyword: perfbench/tracing.py reads the step count from `steps`.
    amp_path = flow_path(build_flow(kind, params), a0, steps=steps)
    z_renorm_discrete = assemble_modes(kind, params, amp_path, fundamental)
    _require_finite("z_renorm_discrete", z_renorm_discrete)
    _require_finite("z_renorm_continuum", z_renorm_continuum)
    return {"z_naive": z_naive, "z_renorm_discrete": z_renorm_discrete,
            "z_renorm_continuum": z_renorm_continuum}


def _error_stage(cfg: ExperimentConfig, oracle_traj: Trajectory, models: dict) -> tuple[dict, dict]:
    """Every column, the errors against the oracle among them, and the summary."""
    naive_profile = compare(oracle_traj, Trajectory(cfg.dt, models["z_naive"]))
    renorm_profile = compare(oracle_traj, Trajectory(cfg.dt, models["z_renorm_continuum"]))
    summary = {
        "max_err_naive": naive_profile.max_abs,
        "max_err_renorm": renorm_profile.max_abs,
        "slope_err_naive": naive_profile.slope,
        "slope_err_renorm": renorm_profile.slope,
        "period_oracle": None,
        "limit_amplitude_oracle": None,
    }
    try:
        summary["period_oracle"] = zero_crossing_period(oracle_traj).mean_period
    except ValueError:
        pass
    try:
        peaks = envelope(oracle_traj)
        tail = peaks[-min(5, peaks.shape[0]) :, 1]
        summary["limit_amplitude_oracle"] = float(tail.mean())
    except ValueError:
        pass

    columns = {
        "n": np.arange(len(oracle_traj)),
        "t": oracle_traj.times,
        "z_oracle": oracle_traj.values,
        **models,
        "err_naive": naive_profile.diffs,
        "err_renorm": renorm_profile.diffs,
    }
    return columns, summary


def run_compare_pipeline(cfg: ExperimentConfig, fundamental: np.ndarray | None = None) -> tuple[dict, dict]:
    """Oracle vs naive vs renormalized trajectories, plus summary statistics.

    Returns (columns, summary); at stride 1 every summary entry is
    recomputable from the written rows.  `fundamental` is lam_p^n on the time
    grid when the caller shares it between pipelines; without it the pipeline
    computes it itself, after the oracle.  Either way the bytes are the same.
    Raises ConfigError for a config that `main` would refuse.
    """
    kind, params, steps = _boundary(cfg)
    # Checks a0 before the oracle runs.
    sol = GlobalSolution(kind, params, complex(cfg.a0_re, cfg.a0_im))
    oracle_traj = _oracle_stage(cfg, kind, params, steps)
    models = _model_stage(cfg, kind, params, steps, sol, fundamental)
    return _error_stage(cfg, oracle_traj, models)


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
    # Every row passes the boundary, then compare's check of a0, before any pipeline runs.
    checked = [_boundary(row_cfg) for row_cfg in row_cfgs]
    for row_cfg, (kind, params, _) in zip(row_cfgs, checked):
        GlobalSolution(kind, params, complex(row_cfg.a0_re, row_cfg.a0_im))
    # eps and a0_re keep the time grid (dt, t_max, root convention, scheme),
    # so its lam_p^n is built once; each dt gives a grid of its own, built
    # inside its pipeline.
    fundamental = None
    if param != "dt":
        _, params, steps = checked[0]
        fundamental = discrete_fundamental(params, np.arange(steps + 1))
    summaries = []
    for row_cfg in row_cfgs:
        # `_` holds the previous pipeline's columns until this one returns, so
        # their pages are reused; dropping them first measured 32% more page
        # faults and 3.1 MB less peak RSS on a four-value eps sweep at 5e4
        # steps, and no wall-time difference that 7 alternating rounds resolved.
        _, summary = run_compare_pipeline(row_cfg, fundamental)
        summaries.append(summary)
    columns = {"value": list(values), **{key: [s[key] for s in summaries] for key in summaries[0]}}
    _write_table(dataclasses.replace(cfg, stride=1), columns, summary={"param": param})
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
