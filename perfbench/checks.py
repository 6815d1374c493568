"""Correctness checks on one operation's output file.

Any problem raises ``CheckError``; the caller counts the operation as failed.
The checks re-derive what they can from the rows themselves, so they do not
trust the program's own constants.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from workloads import COMPARE_HEADER, SUMMARY_KEYS, Workload

SUMMARY_PREFIX = "# summary = "


class CheckError(ValueError):
    pass


@dataclass(frozen=True)
class Checked:
    digest: str  # sha256 of the output file
    rows: int
    bytes: int
    renorm_err_ratio: float  # max over pipelines of max_err_renorm / (eps^2 * t_max)


def check_output(w: Workload, data: bytes, stdout_text: str, scale: float = 1.0) -> Checked:
    """Validate the bytes ``renormdiff`` wrote for workload ``w``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckError(f"output is not UTF-8: {exc}") from exc
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline (truncated?)")
    t_max = w.t_max * scale
    try:
        if w.command == "sweep":
            rows, summaries = _check_sweep(w, text)
        else:
            rows, summary = _check_compare(w, text, scale)
            _check_stdout_echo(stdout_text, summary)
            summaries = [(w.eps_values[0], summary)]
    except CheckError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise CheckError(f"unparseable output: {exc}") from exc
    ratio = 0.0
    for eps, summary in summaries:
        _check_summary(summary)
        ratio = max(ratio, summary["max_err_renorm"] / (eps * eps * t_max))
    return Checked(hashlib.sha256(data).hexdigest(), rows, len(data), ratio)


def _check_compare(w: Workload, text: str, scale: float) -> tuple[int, dict]:
    n_steps = w.n_steps(scale)
    expected_rows = math.ceil((n_steps + 1) / w.stride)
    if w.output_format == "csv":
        lines = text[:-1].split("\n")
        if lines[0] != ",".join(COMPARE_HEADER):
            raise CheckError(f"not the compare header: {lines[0][:200]!r}")
        summary = _summary_line(lines[-1])
        body = lines[1:-1]
        if len(body) != expected_rows:
            raise CheckError(f"{len(body)} rows, expected {expected_rows}")
        table = np.loadtxt(body, delimiter=",", ndmin=2, dtype=float, comments=None)
    else:
        doc = json.loads(text)
        if not isinstance(doc, dict) or set(doc) != {"rows", "summary"}:
            raise CheckError("JSON document needs exactly 'rows' and 'summary'")
        summary, records = doc["summary"], doc["rows"]
        if len(records) != expected_rows:
            raise CheckError(f"{len(records)} rows, expected {expected_rows}")
        fields = set(COMPARE_HEADER)
        if any(set(r) != fields for r in records):
            raise CheckError("a JSON row does not carry exactly the compare fields")
        table = np.array([[r[k] for k in COMPARE_HEADER] for r in records], dtype=float)
    if table.shape != (expected_rows, len(COMPARE_HEADER)):
        raise CheckError(f"table shape {table.shape}, expected {(expected_rows, len(COMPARE_HEADER))}")
    if not np.all(np.isfinite(table)):
        raise CheckError("non-finite field in the rows")
    col = dict(zip(COMPARE_HEADER, table.T))
    if not np.array_equal(col["n"], np.arange(0, n_steps + 1, w.stride)):
        raise CheckError("column n is not 0, stride, 2*stride, ...")
    if not np.allclose(col["t"], col["n"] * w.dt, rtol=1e-12, atol=0.0):
        raise CheckError("column t is not n * dt")
    for err, z in (("err_naive", "z_naive"), ("err_renorm", "z_renorm_continuum")):
        if not np.array_equal(col[err], np.abs(col["z_oracle"] - col[z])):
            raise CheckError(f"{err} is not |z_oracle - {z}|")
    if not isinstance(summary, dict):
        raise CheckError("summary is not an object")
    if w.stride == 1:
        for key, err in (("max_err_naive", "err_naive"), ("max_err_renorm", "err_renorm")):
            if summary.get(key) != float(col[err].max()):
                raise CheckError(f"{key} differs from the max of column {err}")
    return expected_rows, summary


def _check_sweep(w: Workload, text: str) -> tuple[int, list[tuple[float, dict]]]:
    lines = text[:-1].split("\n")
    header = ("value",) + SUMMARY_KEYS
    if lines[0] != ",".join(header):
        raise CheckError(f"not the sweep header: {lines[0][:200]!r}")
    if _summary_line(lines[-1]) != {"param": "eps"}:
        raise CheckError("sweep summary is not {'param': 'eps'}")
    body = lines[1:-1]
    if len(body) != len(w.eps_values):
        raise CheckError(f"{len(body)} rows, expected {len(w.eps_values)}")
    table = np.loadtxt(body, delimiter=",", ndmin=2, dtype=float, comments=None)
    if table.shape != (len(w.eps_values), len(header)):
        raise CheckError(f"table shape {table.shape}")
    if tuple(table[:, 0]) != w.eps_values:
        raise CheckError("sweep values differ from the requested eps list")
    return len(body), [(row[0], dict(zip(SUMMARY_KEYS, map(float, row[1:])))) for row in table]


def _summary_line(line: str) -> dict:
    if not line.startswith(SUMMARY_PREFIX):
        raise CheckError("missing summary line")
    return json.loads(line[len(SUMMARY_PREFIX):])


def _check_stdout_echo(stdout_text: str, summary: dict) -> None:
    lines = stdout_text.strip().split("\n")
    if json.loads(lines[-1]) != summary:
        raise CheckError("summary echoed to stdout differs from the file's")


def _check_summary(summary: dict) -> None:
    for key in SUMMARY_KEYS:
        value = summary.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise CheckError(f"summary {key} is missing or not a finite number: {value!r}")
    if summary["max_err_renorm"] >= summary["max_err_naive"]:
        raise CheckError("renormalized max error is not below the naive one")
    if summary["slope_err_renorm"] >= summary["slope_err_naive"]:
        raise CheckError("renormalized error slope is not below the naive one")
