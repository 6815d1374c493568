"""Command-line workbench: simulate, compare, sweep.

Configuration comes from a plain key=value file ('#' comments) plus
command-line flags; flags win.  Output is CSV (17-significant-digit floats,
byte-stable across runs) or JSON mirroring the same field names.  Exit codes:
0 success, 2 configuration error (an output path that cannot be opened
included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .analysis import compare, envelope, zero_crossing_period
from .asymptotic import GlobalSolution, assemble_modes
from .lineardiff import RootConvention, Scheme, SchemeParams
from .oracle import (
    DivergenceError,
    SingularStepError,
    Trajectory,
    init_from_amplitude,
    iterate,
)
from .perturbation import AmplitudePair, Nonlinearity, Variant, naive_solution
from .renormalization import KappaConvention, build_flow, flow_path

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
    kappa_convention: str = "one-plus-c-squared"
    vdp_halving: bool = False
    scheme: str = "standard"
    output_path: str | None = None
    output_format: str = "csv"
    stride: int = 1


_KINDS = ("cubic", "vdp")
_ROOT_CONVENTIONS = {c.value: c for c in RootConvention}
_KAPPA_CONVENTIONS = {c.value: c for c in KappaConvention}
_SCHEMES = tuple(s.value for s in Scheme)
_FORMATS = ("csv", "json")
_SWEEPABLE = ("dt", "eps", "a0_re")
_FINITE = ("dt", "eps", "a0_re", "a0_im", "t_max")
# The oracle runs about 270 (cubic) to 380 (vdp) ns per step in pure Python on
# a 2-vCPU Xeon and a compare pipeline holds at least 8 float64 columns per step,
# so 1e8 steps takes minutes and over 6 GB; larger counts are rejected early.
_MAX_STEPS = 10**8

_BOOL_WORDS = {
    "1": True,
    "true": True,
    "yes": True,
    "on": True,
    "0": False,
    "false": False,
    "no": False,
    "off": False,
}


def _parse_config_file(path: str) -> dict:
    fields = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce_field(key, value)
    return out


def _coerce_field(key: str, value: str):
    default = getattr(ExperimentConfig(), key)
    if isinstance(default, bool):
        word = value.lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{key} expects a boolean, got {value!r}")
        return _BOOL_WORDS[word]
    if isinstance(default, int):
        try:
            return int(value)
        except ValueError as exc:
            raise ConfigError(f"{key} expects an integer, got {value!r}") from exc
    if isinstance(default, float):
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"{key} expects a number, got {value!r}") from exc
    return value


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.kind not in _KINDS:
        raise ConfigError(f"kind must be one of {_KINDS}, got {cfg.kind!r}")
    for name in _FINITE:
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(cfg, name)!r}")
    if cfg.dt <= 0.0:
        raise ConfigError("dt must be positive")
    if cfg.t_max <= 0.0:
        raise ConfigError("t_max must be positive")
    if cfg.stride < 1:
        raise ConfigError("stride must be >= 1")
    if cfg.root_convention not in _ROOT_CONVENTIONS:
        raise ConfigError(
            f"root_convention must be one of {sorted(_ROOT_CONVENTIONS)}, "
            f"got {cfg.root_convention!r}"
        )
    if cfg.kappa_convention not in _KAPPA_CONVENTIONS:
        raise ConfigError(
            f"kappa_convention must be one of {sorted(_KAPPA_CONVENTIONS)}, "
            f"got {cfg.kappa_convention!r}"
        )
    if cfg.scheme not in _SCHEMES:
        raise ConfigError(f"scheme must be one of {_SCHEMES}, got {cfg.scheme!r}")
    if cfg.output_format not in _FORMATS:
        raise ConfigError(
            f"output_format must be one of {_FORMATS}, got {cfg.output_format!r}"
        )
    if cfg.kind == "vdp" and cfg.a0_re == 0.0:
        raise ConfigError("vdp runs need a0_re != 0 to define the component ratio")
    if cfg.eps < 0.0:
        raise ConfigError("eps must be nonnegative")
    return cfg


def _scheme_params(cfg: ExperimentConfig) -> SchemeParams:
    return SchemeParams(
        dt=cfg.dt,
        eps=cfg.eps,
        root_convention=_ROOT_CONVENTIONS[cfg.root_convention],
        scheme=Scheme(cfg.scheme),
    )


def _nonlinearity(cfg: ExperimentConfig) -> Nonlinearity:
    if cfg.kind == "cubic":
        return Nonlinearity(Variant.CUBIC)
    return Nonlinearity(Variant.VAN_DER_POL, vdp_halving=cfg.vdp_halving)


def _global_solution(cfg: ExperimentConfig, kind: Nonlinearity, params: SchemeParams) -> GlobalSolution:
    """The renormalized solution; raises ValueError for a Van der Pol a0 out of reach."""
    return GlobalSolution(
        kind,
        params,
        complex(cfg.a0_re, cfg.a0_im),
        kappa_convention=_KAPPA_CONVENTIONS[cfg.kappa_convention],
    )


def _steps(cfg: ExperimentConfig) -> int:
    ratio = cfg.t_max / cfg.dt
    if not ratio <= _MAX_STEPS:
        raise ConfigError(f"t_max/dt must be at most {_MAX_STEPS}, got {ratio!r}")
    n = int(round(ratio))
    if n < 2:
        raise ConfigError("t_max must cover at least two steps")
    return n


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_value(value):
    if value is None:
        return None
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


# Rows formatted per chunk: a chunk's text is about 0.6 MB of compare CSV or
# 1.1 MB of JSON, so a long run is never held in memory as one document.
_CHUNK_ROWS = 4096


def _csv_encoder(column):
    """(conversion spec, encode) for one CSV column; encode maps a slice to cells.

    Numeric arrays go through ``tolist()`` and one ``%`` conversion, which
    writes what ``_fmt`` writes per cell; anything else keeps ``_fmt``.
    """
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        return "%.17g", np.ndarray.tolist
    if kind in ("i", "u"):
        return "%d", np.ndarray.tolist
    return "%s", lambda part: [_fmt(v) for v in part]


def _json_encoder(column):
    """Encode for one JSON column: maps a slice to the literals of its cells.

    The literals are what ``json.dumps`` writes for ``_json_value`` of each
    value (``repr`` floats, ``NaN``, ``null``).
    """
    if isinstance(column, np.ndarray) and column.dtype.kind in ("f", "i", "u"):
        return lambda part: json.dumps(part.tolist())[1:-1].split(", ")
    return lambda part: json.dumps([_json_value(v) for v in part])[1:-1].split(", ")


def _table_text(cfg: ExperimentConfig, columns: dict, summary: dict | None):
    """Yield the CSV or JSON document in pieces of at most ``_CHUNK_ROWS`` rows.

    The CSV columns are written in the order of ``columns``.

    Each row comes from one ``%`` template; the pieces join to exactly what
    ``",".join`` of ``_fmt`` cells per row, or ``json.dumps(doc, indent=1,
    sort_keys=True)`` of ``{"rows": [...], "summary": ...}``, would give.
    """
    names = list(columns)
    if cfg.output_format == "csv":
        specs, encoders = zip(*(_csv_encoder(columns[name]) for name in names))
        row = ",".join(specs) + "\n"
        sep = ""
        head = ",".join(names) + "\n"
        tail = "" if summary is None else "# summary = " + json.dumps(summary, sort_keys=True) + "\n"
    else:
        names.sort()
        encoders = [_json_encoder(columns[name]) for name in names]
        row = "  {\n" + ",\n".join(f"   {json.dumps(name)}: %s" for name in names) + "\n  }"
        sep = ",\n"
        head = '{\n "rows": [\n'
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
        cells = [encode(columns[name][lo : lo + span : stride])
                 for name, encode in zip(names, encoders)]
        text = sep.join([row] * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))
        yield text if lo == 0 else sep + text
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


def _oracle_trajectory(cfg: ExperimentConfig, kind: Nonlinearity, params: SchemeParams) -> Trajectory:
    z0, z1 = init_from_amplitude(complex(cfg.a0_re, cfg.a0_im), params)
    return iterate(kind, params, z0, z1, _steps(cfg))


def cmd_simulate(cfg: ExperimentConfig) -> int:
    kind = _nonlinearity(cfg)
    params = _scheme_params(cfg)
    traj = _oracle_trajectory(cfg, kind, params)
    n = np.arange(len(traj))
    columns = {"n": n, "t": traj.times, "z": traj.values}
    _write_table(cfg, columns, summary=None)
    return 0


def run_compare_pipeline(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Oracle vs naive vs renormalized trajectories, plus summary statistics.

    Returns (columns, summary); every summary entry is recomputable from the
    columns alone.
    """
    kind = _nonlinearity(cfg)
    params = _scheme_params(cfg)
    a0 = complex(cfg.a0_re, cfg.a0_im)
    sol = _global_solution(cfg, kind, params)  # checks a0's reach before the oracle runs
    oracle_traj = _oracle_trajectory(cfg, kind, params)
    n_steps = len(oracle_traj) - 1
    n = np.arange(n_steps + 1)

    amps = AmplitudePair.conjugate_pair(a0)
    z_naive = naive_solution(kind, amps, params, n)

    z_renorm_continuum = sol.eval_discrete(n)

    flow = build_flow(kind, params)
    # By keyword: perfbench/tracing.py reads the step count from `steps`.
    amp_path = flow_path(flow, a0, steps=n_steps)
    z_renorm_discrete = assemble_modes(kind, params, amp_path, n)

    naive_profile = compare(oracle_traj, Trajectory(cfg.dt, z_naive))
    renorm_profile = compare(oracle_traj, Trajectory(cfg.dt, z_renorm_continuum))

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
        "n": n,
        "t": oracle_traj.times,
        "z_oracle": oracle_traj.values,
        "z_naive": z_naive,
        "z_renorm_discrete": z_renorm_discrete,
        "z_renorm_continuum": z_renorm_continuum,
        "err_naive": naive_profile.diffs,
        "err_renorm": renorm_profile.diffs,
    }
    return columns, summary


def cmd_compare(cfg: ExperimentConfig) -> int:
    columns, summary = run_compare_pipeline(cfg)
    _write_table(cfg, columns, summary)
    if cfg.output_path is not None:
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def cmd_sweep(cfg: ExperimentConfig, param: str, values: list[float]) -> int:
    if param not in _SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {_SWEEPABLE}, got {param!r}")
    if not values:
        raise ConfigError("sweep needs a non-empty list of values")
    row_cfgs = [_validate(dataclasses.replace(cfg, **{param: value})) for value in values]
    for row_cfg in row_cfgs:  # reject a bad value before any pipeline runs
        _steps(row_cfg)
        _global_solution(row_cfg, _nonlinearity(row_cfg), _scheme_params(row_cfg))
    summaries = []
    for row_cfg in row_cfgs:
        # `_` holds the previous pipeline's columns until this one returns;
        # dropping them first measured 48% more page faults and 6% more wall
        # time on a four-value sweep at 5e4 steps.
        _, summary = run_compare_pipeline(row_cfg)
        summaries.append(summary)
    columns = {"value": list(values)}
    for key in summaries[0]:
        columns[key] = [s[key] for s in summaries]
    sweep_cfg = dataclasses.replace(cfg, stride=1)
    _write_table(sweep_cfg, columns, summary={"param": param})
    return 0


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key=value config file; flags override")
    parser.add_argument("--kind", choices=_KINDS)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--a0-re", dest="a0_re", type=float)
    parser.add_argument("--a0-im", dest="a0_im", type=float)
    parser.add_argument("--t-max", dest="t_max", type=float)
    parser.add_argument("--root-convention", dest="root_convention",
                        choices=sorted(_ROOT_CONVENTIONS))
    parser.add_argument("--kappa-convention", dest="kappa_convention",
                        choices=sorted(_KAPPA_CONVENTIONS))
    parser.add_argument("--vdp-halving", dest="vdp_halving",
                        action=argparse.BooleanOptionalAction)
    parser.add_argument("--scheme", choices=_SCHEMES)
    parser.add_argument("--output-path", dest="output_path")
    parser.add_argument("--output-format", dest="output_format", choices=_FORMATS)
    parser.add_argument("--stride", type=int)


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
            p.add_argument("--param", required=True, help="one of dt, eps, a0_re")
            p.add_argument("--values", required=True,
                           help="comma-separated list of numbers")
    return parser


def _resolve_config(ns: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if ns.config:
        for key, value in _parse_config_file(ns.config).items():
            setattr(cfg, key, value)
    for field in dataclasses.fields(ExperimentConfig):
        override = getattr(ns, field.name, None)
        if override is not None:
            setattr(cfg, field.name, override)
    return _validate(cfg)


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
        values_raw = [v for v in ns.values.split(",") if v.strip()]
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
    raise SystemExit(main())
