#!/usr/bin/env python3
"""Benchmark of the renormdiff CLI: end-to-end timings and per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test

An operation is one in-process call of ``renormdiff.cli.main(argv)`` with the
workload's argv (see workloads.py), writing to a temporary directory that is
removed after the output is checked (see checks.py).  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics (see tracing.py).  The
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  A manifest, the per-operation samples and the spans of each run
go to ``.perfbench_out/runs/``.
"""

import os

# Single-process load: BLAS/OpenMP pools must be sized before numpy loads,
# here and in the fresh-process probes, which inherit this environment.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import CheckError, check_output  # noqa: E402
from reference import REF_SECONDS, reference_seconds  # noqa: E402
from tracing import ROOT_SPAN, SELF_METRIC, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI_FILE = SRC / "renormdiff" / "cli.py"
OUT = ROOT / ".perfbench_out"

MIN_OPS = 3  # timed operations per run, however short --seconds is
FRESH_PROBES = 3  # fresh processes per end-to-end run, for setup_s and peak_rss_mb
PROBE_TIMEOUT_S = 60
SELF_TEST_SCALE = 0.2  # horizon factor of the self-test

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "renorm_err_ratio": "ratio",
}


def load_program():
    """Import renormdiff.cli from this checkout's sources, or exit nonzero."""
    if not CLI_FILE.is_file():
        sys.exit(f"perfbench: {CLI_FILE} not found; run from the root of a renormdiff checkout")
    sys.path.insert(0, str(SRC))
    import renormdiff.cli as cli

    if Path(cli.__file__).resolve() != CLI_FILE:
        sys.exit(f"perfbench: imported {cli.__file__}, not {CLI_FILE}")
    return cli


LAYER_UNITS = {
    **{metric: "s" for metric in SELF_METRIC.values()},
    "cli.bytes_per_s": "B/s",
    "cli.rows_written": "count",
    "cli.bytes_written": "B",
    "oracle.steps": "count",
    "oracle.ns_per_step": "ns",
    "renormalization.flow_steps": "count",
    "renormalization.ns_per_step": "ns",
    "lineardiff.terms_evaluated": "count",
    "asymptotic.third_harmonic_calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class Session:
    """Runs and checks the operations of one workload and keeps the tallies."""

    def __init__(self, cli, workload: Workload, seed: int, scale: float = 1.0) -> None:
        self.cli, self.w, self.seed, self.scale = cli, workload, seed, scale
        self.attempted = 0
        self.failures: list[str] = []
        self.checked = None  # Checked of the first passing operation

    def argv(self, output_path: str) -> list[str]:
        return self.w.argv(self.seed, output_path, self.scale)

    @contextlib.contextmanager
    def _output_path(self):
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
        try:
            yield tmp / f"out.{self.w.output_format}"
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def _settle(self, error: str | None, path: Path, stdout_text: str) -> bool:
        """Check a finished operation's output and count it; True if it passed."""
        self.attempted += 1
        if error is None:
            try:
                checked = check_output(self.w, path.read_bytes(), stdout_text, self.scale)
            except (CheckError, OSError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            else:
                if self.checked is None:
                    self.checked = checked
                elif checked.digest != self.checked.digest:
                    error = "output differs from the run's first output (sha256)"
        if error is not None:
            self.failures.append(error)
        return error is None

    def op(self, tracer: Tracer | None = None, mangle=None) -> float:
        """One checked in-process CLI call; returns its wall time.

        ``mangle(path)`` edits the output before the check (self-test only).
        """
        with self._output_path() as path:
            argv = self.argv(str(path))
            captured = io.StringIO()
            root = tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext()
            gc.collect()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured), root:
                    rc = self.cli.main(argv)
                error = None if rc == 0 else f"exit code {rc}"
            except Exception as exc:  # a crashing call is a failed operation, not a crashed run
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if error is None and mangle is not None:
                mangle(path)
            self._settle(error, path, captured.getvalue())
        return wall

    def fresh_probe(self) -> dict | None:
        """Set-up time and peak RSS of one call in a fresh interpreter."""
        with self._output_path() as path:
            env = dict(os.environ, PYTHONPATH=str(SRC))
            cmd = [sys.executable, str(HERE / "fresh.py"), json.dumps(self.argv(str(path)))]
            report, error = None, None
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                      timeout=PROBE_TIMEOUT_S)
                report = json.loads(proc.stdout.strip().split("\n")[-1])
            except subprocess.TimeoutExpired:
                error = f"fresh probe exceeded {PROBE_TIMEOUT_S} s"
            except ValueError:
                error = f"fresh probe exited {proc.returncode}: {proc.stderr[-500:]}"
            else:
                if report["rc"] != 0:
                    error = f"exit code {report['rc']} in a fresh process"
                elif Path(report["cli_file"]).resolve() != CLI_FILE:
                    error = f"fresh process imported {report['cli_file']}"
            passed = self._settle(error, path, report["stdout"] if report else "")
        return report if passed else None


def _timed(seconds: float, step) -> None:
    deadline = time.perf_counter() + seconds
    done = 0
    while done < MIN_OPS or time.perf_counter() < deadline:
        step()
        done += 1


def _spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "min": min(values), "max": max(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def _per(numerator: float, denominator: float):
    return numerator / denominator if denominator else None


def _scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """A time over the mean of the reference runs around it (see reference.py)."""
    return seconds / (0.5 * (ref_before + ref_after)) * REF_SECONDS


def measure_end_to_end(s: Session, seconds: float) -> tuple[dict, dict]:
    setup, rss = [], []
    ref = reference_seconds()
    for _ in range(FRESH_PROBES):
        probe = s.fresh_probe()
        ref_after = reference_seconds()
        if probe:
            setup.append(_scaled(probe["setup_s"], ref, ref_after))
            rss.append(probe["peak_rss_kib"] * 1024 / 1e6)
        ref = ref_after
    s.op()  # warm-up: lazy imports and first-touch allocations are not timed
    walls: list[float] = []
    refs = [reference_seconds()]

    def step():
        walls.append(s.op())
        refs.append(reference_seconds())

    _timed(seconds, step)
    scaled = [_scaled(w, before, after) for w, before, after in zip(walls, refs, refs[1:])]
    wall = statistics.median(scaled)
    values = {
        "wall_s": wall,
        "steps_per_s": s.w.steps_per_op(s.scale) / wall,
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": statistics.median(rss) if rss else None,
        "renorm_err_ratio": s.checked.renorm_err_ratio if s.checked else None,
    }
    samples = {"wall_s": scaled, "raw_wall_s": walls, "reference_s": refs, "setup_s": setup,
               "peak_rss_mb": rss}
    return values, samples


def _layer_sample(profile: dict, wall: float, checked) -> dict:
    sample = {metric: profile["self_s"].get(metric, 0.0) for metric in SELF_METRIC.values()}
    steps = profile["counts"].get("oracle.iterate", 0)
    flow_steps = profile["counts"].get("renormalization.flow_path", 0)
    sample.update({
        "cli.rows_written": checked.rows if checked else None,
        "cli.bytes_written": checked.bytes if checked else None,
        "cli.bytes_per_s": _per(checked.bytes, sample["cli.self_s"]) if checked else None,
        "oracle.steps": steps,
        "oracle.ns_per_step": _per(1e9 * sample["oracle.iterate_s"], steps),
        "renormalization.flow_steps": flow_steps,
        "renormalization.ns_per_step": _per(1e9 * sample["renormalization.flow_path_s"], flow_steps),
        "lineardiff.terms_evaluated": profile["counts"].get("lineardiff.HarmonicSum.evaluate", 0),
        "asymptotic.third_harmonic_calls": profile["calls"].get("asymptotic.third_harmonic_coefficient", 0),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(profile["self_s"].values()),
    })
    return sample


def measure_per_layer(s: Session, seconds: float, tracer: Tracer) -> tuple[dict, dict]:
    s.op()  # warm-up
    untraced: list[float] = []
    layer_samples: list[dict] = []

    def pair():
        untraced.append(s.op())
        tracer.op += 1
        first = len(tracer.spans)
        with tracer.installed():
            wall = s.op(tracer)
        sample = _layer_sample(tracer.op_profile(first), wall, s.checked)
        sample["trace.overhead_s"] = wall - untraced[-1]
        layer_samples.append(sample)

    _timed(seconds, pair)
    values = {}
    for name in LAYER_UNITS:
        column = [x[name] for x in layer_samples if name in x and x[name] is not None]
        median = statistics.median_low if LAYER_UNITS[name] in ("count", "B") else statistics.median
        values[name] = median(column) if column else None
    samples = {"untraced_wall_s": untraced, "layers": layer_samples}
    return values, samples


def _git(*args: str) -> str | None:
    # The ceiling keeps git from searching above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest(s: Session, seconds: float, trace: int) -> dict:
    import numpy

    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_repo else None,
        "python": sys.version,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_env": THREAD_ENV,
        "workload": s.w.name,
        "seed": s.seed,
        "seconds": seconds,
        "trace": trace,
        "scale": s.scale,
        "argv": s.argv("<tmp>/out." + s.w.output_format),
        "steps_per_op": s.w.steps_per_op(s.scale),
    }


def run_workload(cli, w: Workload, seed: int, seconds: float, trace: int,
                 scale: float = 1.0) -> dict:
    s = Session(cli, w, seed, scale)
    tracer = Tracer() if trace else None
    if trace:
        values, samples = measure_per_layer(s, seconds, tracer)
        units = LAYER_UNITS
    else:
        values, samples = measure_end_to_end(s, seconds)
        units = END_TO_END_UNITS
    result = {
        "correct": not s.failures and s.attempted > 0,
        "attempted": s.attempted,
        "failed": len(s.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = OUT / "runs" / f"{w.name}-seed{seed}-trace{trace}"
    record.mkdir(parents=True, exist_ok=True)
    (record / "manifest.json").write_text(json.dumps(manifest(s, seconds, trace), indent=1) + "\n")
    spreads = {k: _spread(v) for k, v in samples.items() if k != "layers" and v}
    (record / "results.json").write_text(json.dumps({
        "result": result,
        "spreads": spreads,
        "samples": samples,
        "sha256": s.checked.digest if s.checked else None,
        "failures": s.failures,
    }, indent=1) + "\n")
    if tracer is not None:
        fields = ["name", "start", "end", "parent", "op", "count"]
        (record / "spans.json").write_text(json.dumps({"fields": fields, "spans": tracer.spans}) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{w.name}  {name} = {metric['value']} {metric['unit']}")
    for error in s.failures[:5]:
        print(f"{w.name}  FAILED: {error}")
    return result


class SelfTestFailure(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def _truncate(path: Path) -> None:
    """Keep the whole lines of the first half, as an interrupted writer would."""
    data = path.read_bytes()
    path.write_bytes(data[: data.rindex(b"\n", 0, len(data) // 2) + 1])


def self_test(cli) -> None:
    """Every workload once at a short horizon; the checks must bite."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _require({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
             "BENCHMARK.json workloads differ from workloads.py")
    for w in WORKLOADS.values():
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_workload(cli, w, seed=0, seconds=0, trace=trace, scale=SELF_TEST_SCALE)
            metrics = result["metrics"]
            _require(result["correct"] and result["failed"] == 0, f"{w.name}: operations failed")
            _require(set(metrics) == {m["name"] for m in listed},
                     f"{w.name} trace {trace}: metric names differ from BENCHMARK.json")
            for m in listed:
                got = metrics[m["name"]]
                _require(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
                         f"{w.name}: {m['name']} printed as {got}")
            if trace:
                unattributed = abs(metrics["trace.unattributed_s"]["value"])
                _require(unattributed <= max(abs(metrics["trace.overhead_s"]["value"]), 1e-3),
                         f"{w.name}: self times miss the traced wall by {unattributed} s")
        s = Session(cli, w, seed=0, scale=SELF_TEST_SCALE)
        s.op(mangle=_truncate)
        _require(s.attempted == 1 and len(s.failures) == 1,
                 f"{w.name}: a truncated output was not counted as failed")
        print(f"{w.name}  truncated output rejected: {s.failures[0]}")
    print("self-test passed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload once at a short horizon and check the harness")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    cli = load_program()
    try:
        if args.self_test:
            try:
                self_test(cli)
            except SelfTestFailure as exc:
                print(f"self-test FAILED: {exc}", file=sys.stderr)
                return 1
            return 0
        if args.workload == "all":
            results = {name: run_workload(cli, w, args.seed, args.seconds, args.trace)
                       for name, w in WORKLOADS.items()}
            print(json.dumps(results))
            return 0
        result = run_workload(cli, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(OUT / "tmp", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
