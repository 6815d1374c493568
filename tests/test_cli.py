import argparse
import cmath
import contextlib
import dataclasses
import errno
import inspect
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from renormdiff import cli, oracle, writer
from renormdiff.asymptotic import init_from_amplitude
from renormdiff.cli import ExperimentConfig, main, run_compare_pipeline
from renormdiff.lineardiff import (
    RootConvention,
    Scheme,
    SchemeParams,
    characteristic_roots,
)
from renormdiff.perturbation import (
    Variant,
    first_order,
    first_order_solution,
    monomial,
    zeroth_order,
)
from renormdiff.renormalization import build_flow, continuum_amplitude


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data_lines = [ln for ln in lines if not ln.startswith("#")]
    header = data_lines[0].split(",")
    rows = np.array(
        [[float(x) if x else np.nan for x in ln.split(",")] for ln in data_lines[1:]]
    )
    return header, rows, comments


def collected(cfg):
    """run_compare_pipeline's rows, collected from its row consumer block by
    block and joined into whole columns, and its summary."""
    blocks = []
    summary = run_compare_pipeline(cfg, write_rows=blocks.append)
    return {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}, summary


def summary_from_comments(comments):
    for line in comments:
        if line.startswith("# summary = "):
            return json.loads(line[len("# summary = ") :])
    raise AssertionError("no summary comment found")


def _count_calls(monkeypatch, owner, *names, calls=None):
    """Count the calls of each of `names` on `owner`, in `calls` when given;
    the calls still run."""
    calls = {} if calls is None else calls
    calls.update(dict.fromkeys(names, 0))

    def counted(name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(name))
    return calls


class TestSimulate:
    def test_linear_run_matches_closed_form(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "simulate",
                "--kind", "cubic",
                "--dt", "0.1",
                "--eps", "0",
                "--a0-re", "0.5",
                "--a0-im", "0",
                "--t-max", "50",
                "--root-convention", "exact",
                "--output-path", str(out),
            ]
        )
        assert code == 0
        header, rows, _ = read_csv(out)
        assert header == ["n", "t", "z"]
        params = SchemeParams(dt=0.1, root_convention=RootConvention.EXACT_UNIT_MODULUS)
        lam, _ = characteristic_roots(params)
        n = rows[:, 0]
        expected = 2.0 * np.real(0.5 * np.exp(n * np.log(lam)))
        assert np.max(np.abs(rows[:, 2] - expected)) <= 1e-10

    def test_zero_dt_is_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--dt", "0", "--output-path", str(tmp_path / "x.csv")])
        assert code == 2
        assert "dt must be positive" in capsys.readouterr().err

    def test_vdp_envelope_rises_then_saturates(self, tmp_path):
        out = tmp_path / "vdp.csv"
        code = main(
            [
                "simulate",
                "--kind", "vdp",
                "--dt", "0.01",
                "--eps", "0.05",
                "--a0-re", "0.1",
                "--t-max", "250",
                "--output-path", str(out),
            ]
        )
        assert code == 0
        _, rows, _ = read_csv(out)
        t, z = rows[:, 1], rows[:, 2]
        assert np.abs(z[t < 20.0]).max() < 1.0  # still far from the limit cycle
        assert np.abs(z[t > 150.0]).max() == pytest.approx(2.0, rel=0.05)

    def test_mickens_scheme_available(self, tmp_path):
        out = tmp_path / "mick.csv"
        code = main(
            [
                "simulate",
                "--scheme", "mickens",
                "--kind", "cubic",
                "--dt", "0.1",
                "--eps", "0",
                "--a0-re", "0.5",
                "--t-max", "20",
                "--output-path", str(out),
            ]
        )
        assert code == 0
        _, rows, _ = read_csv(out)
        # with eps = 0 the trigonometric scheme reproduces cos(n h) for the
        # matching initial data; check boundedness and the documented column
        # layout here
        assert np.abs(rows[:, 2]).max() <= 1.2

    def test_divergence_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--kind", "cubic",
                "--dt", "0.1",
                "--eps", "0.4",
                "--a0-re", "1e6",
                "--t-max", "10",
                "--output-path", str(tmp_path / "d.csv"),
            ]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_vdp_zero_real_amplitude_runs(self, tmp_path):
        # the oracle needs no component ratio; it starts from the first-order
        # bridge, whose z(0) = 2 Re(eps k3 a0^3) is not 0 at a0 = 0.3i
        out = tmp_path / "vdp.csv"
        code = main(["simulate", "--kind", "vdp", "--a0-re", "0", "--a0-im", "0.3",
                     "--t-max", "5", "--output-path", str(out)])
        assert code == 0
        _, rows, _ = read_csv(out)
        params = cli._scheme_params(ExperimentConfig(kind="vdp"))
        first = first_order(Variant.VAN_DER_POL, params)
        assert rows[0, 2] == init_from_amplitude(first, 0.3j)[0] != 0.0
        assert np.all(np.isfinite(rows[:, 2]))

    @pytest.mark.parametrize("eps", [0.02, 0.2])
    @pytest.mark.parametrize("scheme", ["standard", "mickens"])
    def test_centred_difference_vdp_is_the_run_at_half_eps(self, tmp_path, scheme, eps):
        # The forcing eps (mu/dt) (1 - z^2) (z(n+1) - z(n-1))/2 is the Van der
        # Pol scheme at eps/2: the run at eps/2 solves the centred form at eps.
        out = tmp_path / "vdp.csv"
        code = main(["simulate", "--kind=vdp", "--dt=0.01", "--t-max=20", "--a0-re=0.4",
                     "--a0-im=0.15", f"--eps={eps / 2!r}", f"--scheme={scheme}",
                     f"--output-path={out}"])
        assert code == 0
        _, rows, _ = read_csv(out)
        z = rows[:, 2]
        mu = SchemeParams(dt=0.01, scheme=Scheme(scheme)).mu
        zm, zc, zp = z[:-2], z[1:-1], z[2:]
        linear = zp - (2.0 - mu) * zc + zm
        drive = (mu / 0.01) * (1.0 - zc**2) * (zp - zm)
        scale = np.abs(z).max()
        assert np.abs(linear - eps * drive / 2.0).max() <= 1e-13 * scale
        # the uncentred form at the same eps is a different scheme
        assert np.abs(linear - eps * drive).max() >= 1e-8 * scale


class TestCompare:
    def test_zero_eps_all_errors_tiny(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            [
                "compare",
                "--kind", "cubic",
                "--dt", "0.05",
                "--eps", "0",
                "--a0-re", "0.5",
                "--t-max", "50",
                "--output-path", str(out),
            ]
        )
        assert code == 0
        header, rows, comments = read_csv(out)
        assert header[:2] == ["n", "t"]
        err_naive = rows[:, header.index("err_naive")]
        err_renorm = rows[:, header.index("err_renorm")]
        assert err_naive.max() <= 1e-8
        assert err_renorm.max() <= 1e-8
        summary = summary_from_comments(comments)
        assert summary["max_err_naive"] <= 1e-8

    def test_secular_vs_renormalized_slopes(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            [
                "compare",
                "--kind", "cubic",
                "--dt", "0.01",
                "--eps", "0.01",
                "--a0-re", "0.5",
                "--t-max", "200",
                "--output-path", str(out),
            ]
        )
        assert code == 0
        _, _, comments = read_csv(out)
        summary = summary_from_comments(comments)
        assert summary["slope_err_naive"] >= 5.0 * summary["slope_err_renorm"]

    @pytest.mark.parametrize("eps, bound", [("0", 1e-9), ("0.01", 0.005)])
    def test_mickens_renormalized_matches_its_own_oracle(self, tmp_path, eps, bound):
        # naive and renormalized columns must use the oracle's weight
        # 4 sin^2(dt/2); built from dt^2 roots the gap was 0.08 at eps = 0
        out = tmp_path / "mick.csv"
        code = main(
            [
                "compare",
                "--scheme", "mickens",
                "--kind", "cubic",
                "--dt", "0.1",
                "--eps", eps,
                "--t-max", "200",
                "--output-path", str(out),
            ]
        )
        assert code == 0
        _, _, comments = read_csv(out)
        assert summary_from_comments(comments)["max_err_renorm"] <= bound

    def test_vdp_limit_amplitude_reported(self, tmp_path):
        out = tmp_path / "vdp.json"
        code = main(
            [
                "compare",
                "--kind", "vdp",
                "--dt", "0.01",
                "--eps", "0.05",
                "--a0-re", "0.1",
                "--t-max", "250",
                "--output-format", "json",
                "--output-path", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["limit_amplitude_oracle"] == pytest.approx(2.0, rel=0.02)
        assert {"n", "t", "z_oracle", "z_naive", "z_renorm_discrete",
                "z_renorm_continuum", "err_naive", "err_renorm"} <= set(doc["rows"][0])

    def test_output_byte_stable(self, tmp_path):
        args = [
            "compare",
            "--kind", "cubic",
            "--dt", "0.02",
            "--eps", "0.02",
            "--a0-re", "0.4",
            "--t-max", "30",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--output-path", str(out1)]) == 0
        assert main(args + ["--output-path", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_exponent_negative_after_space(self, tmp_path):
        # argparse before 3.13 read "-3e-05" as an option and exited 2
        spaced, joined = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["compare", "--dt", "0.05", "--t-max", "5"]
        assert main(args + ["--a0-im", "-3e-05", "--output-path", str(spaced)]) == 0
        assert main(args + ["--a0-im=-3e-05", "--output-path", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_stride_decimates_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(
            [
                "compare",
                "--kind", "cubic",
                "--dt", "0.1",
                "--eps", "0.01",
                "--a0-re", "0.5",
                "--t-max", "10",
                "--stride", "10",
                "--output-path", str(out),
            ]
        )
        assert code == 0
        _, rows, _ = read_csv(out)
        assert rows.shape[0] == 11  # 101 samples, every 10th
        assert np.allclose(np.diff(rows[:, 0]), 10)

    def test_summary_recomputable_from_rows(self, tmp_path):
        out = tmp_path / "cmp.csv"
        main(
            [
                "compare",
                "--kind", "cubic",
                "--dt", "0.05",
                "--eps", "0.02",
                "--a0-re", "0.5",
                "--t-max", "60",
                "--output-path", str(out),
            ]
        )
        header, rows, comments = read_csv(out)
        summary = summary_from_comments(comments)
        err_naive = np.abs(
            rows[:, header.index("z_oracle")] - rows[:, header.index("z_naive")]
        )
        assert err_naive.max() == pytest.approx(summary["max_err_naive"], rel=1e-12)
        t = rows[:, header.index("t")]
        for name in ("naive", "renorm"):
            err = rows[:, header.index(f"err_{name}")]
            assert summary[f"max_err_{name}"] == err.max()
            # the bound of the slope's own test against np.polyfit
            want = np.polyfit(t, np.maximum.accumulate(err), 1)[0]
            assert abs(summary[f"slope_err_{name}"] - want) <= 1e-13 * err.max() / (t[-1] - t[0])

    @pytest.mark.parametrize("a0_re, a0_im", [("0", "0.3"), ("1e-160", "1e-5")])
    def test_vdp_amplitude_off_the_real_axis_runs(self, tmp_path, a0_re, a0_im):
        # the envelope needs |a0|^2 alone, not Im(a0)/Re(a0): Re(a0) = 0 and
        # Im/Re = 1e155 run, with the renormalized error 2.2e-4 and 1.8e-4 of
        # the oracle's peak
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--kind", "vdp", "--a0-re", a0_re, "--a0-im", a0_im,
                     "--t-max", "5", "--output-path", str(out)])
        assert code == 0
        header, rows, _ = read_csv(out)
        assert np.all(np.isfinite(rows))
        peak = np.abs(rows[:, header.index("z_oracle")]).max()
        assert rows[:, header.index("err_renorm")].max() <= 1e-3 * peak

    def test_vdp_out_of_reach_rejected_before_the_oracle(self, tmp_path, monkeypatch, capsys):
        # |a0|^2 underflows to 0 at 1e-200: the envelope's limit is out of
        # double precision's reach
        calls = []
        real = cli.iterate
        monkeypatch.setattr(cli, "iterate", lambda *args: calls.append(args) or real(*args))
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare", "--kind", "vdp", "--a0-re", "1e-200", "--eps", "0.01", "--dt", "0.5",
             "--t-max", "60000", "--stride", "1000", "--output-path", str(out)]
        )
        assert code == 2
        assert "underflows" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["compare", "--a0-re", "1", "--a0-im", "1e8"],
         ["sweep", "--param", "a0_re", "--values", "0.5,1e8"]],
        ids=["compare", "sweep"])
    def test_vdp_huge_amplitude_rejected_before_the_oracle(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # |a0|^2 = 1e16 is past 2^53, where 1 minus it is no longer exact and
        # the envelope no longer starts at a0; the sweep's first row
        # (a0 = 0.5) is legal
        calls = []
        real = cli.iterate
        monkeypatch.setattr(cli, "iterate", lambda *args: calls.append(args) or real(*args))
        out = tmp_path / "cmp.csv"
        code = main([*command, "--kind", "vdp", "--dt", "0.01", "--t-max", "5",
                     "--output-path", str(out)])
        assert code == 2
        assert "reaches 2^53" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("a0_re", ["1.0", "1.5"])
    def test_vdp_from_the_limit_cycle_and_above(self, tmp_path, a0_re):
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--kind", "vdp", "--a0-re", a0_re, "--dt", "0.01",
                     "--eps", "0.02", "--t-max", "60", "--output-path", str(out)])
        assert code == 0
        _, rows, comments = read_csv(out)
        assert np.all(np.isfinite(rows))
        assert np.isfinite(summary_from_comments(comments)["max_err_renorm"])

    @pytest.mark.parametrize("dt, t_max", [("1e-5", "0.01"), ("1e-10", "1e-8")])
    def test_unresolved_third_harmonic_rejected_before_the_oracle(
        self, tmp_path, monkeypatch, capsys, dt, t_max
    ):
        # below dt of about 1.6e-5 the lam_p^3 base falls within the resonance
        # tolerance: at 1e-5 its response used to be filed as secular and its
        # coefficient read as 0, at 1e-10 as a degenerate base
        calls = []
        real = cli.iterate
        monkeypatch.setattr(cli, "iterate", lambda *args: calls.append(args) or real(*args))
        out = tmp_path / "cmp.csv"
        code = main(["compare", f"--dt={dt}", f"--t-max={t_max}", "--output-path", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"dt = {float(dt)} is too small to resolve the third harmonic" in err
        assert calls == []
        assert not out.exists()

    def test_non_finite_naive_column_stops_its_block_and_every_later_one(
        self, monkeypatch, tmp_path, capsys
    ):
        # no exact-root config makes a model column non-finite, so the value
        # is written into the naive column's result; 97-step blocks: n=402 is
        # in the fifth, whose continuum and discrete columns are not formed
        monkeypatch.setattr(oracle, "_GUARD_BLOCK", 97)
        TestPipelineBlocks._spoil(monkeypatch, cli, "naive_solution", 402, np.inf)
        calls = TestPipelineBlocks._count_stages(monkeypatch)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--t-max=20", f"--output-path={out}"]) == 3
        assert capsys.readouterr().err == "numerical failure: z_naive is not finite at n=402\n"
        # the flow runs on through all 21 blocks, where a later overflow would win
        assert calls == {"flow_path": 21, "discrete_fundamental": 5, "naive_solution": 5,
                         "eval_discrete": 4, "assemble_modes": 4}
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, fmt",
        [(["compare"], "csv"), (["compare"], "json"),
         (["sweep", "--param", "eps", "--values", "0.01,0.4"], "csv")],
        ids=["compare-csv", "compare-json", "sweep"])
    def test_amplitude_flow_overflow_is_a_numerical_failure(
        self, tmp_path, capsys, command, fmt
    ):
        # at eps = 0.4 and dt = 1 the Van der Pol flow from a0 = 10 passes
        # its overflow guard at step 3; the sweep's first row (eps = 0.01)
        # runs, and its second fails before anything is written.  A sweep
        # assembles no discrete column, which no summary key reads, but runs
        # the flow for this guard.
        out = tmp_path / f"flow.{fmt}"
        code = main([*command, "--kind=vdp", "--eps=0.4", "--dt=1", "--a0-re=10",
                     "--t-max=50", f"--output-format={fmt}", "--output-path", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: amplitude flow exceeded 1000000000000.0 at step 3\n"
        )
        assert not out.exists()


class TestSweep:
    def test_eps_sweep_renorm_error_quadratic(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--param", "eps",
                "--values", "0.01,0.02,0.04",
                "--kind", "cubic",
                "--dt", "0.01",
                "--a0-re", "0.5",
                "--t-max", "200",
                "--output-path", str(out),
            ]
        )
        assert code == 0
        header, rows, _ = read_csv(out)
        err = rows[:, header.index("max_err_renorm")]
        assert err[1] / err[0] == pytest.approx(4.0, rel=0.25)
        assert err[2] / err[1] == pytest.approx(4.0, rel=0.25)

    @pytest.mark.parametrize(
        "values, entry", [("", 1), ("0.01,,0.02", 2), ("0.01,", 2), (" ,0.01", 1)]
    )
    def test_empty_values_rejected(self, tmp_path, capsys, values, entry):
        out = tmp_path / "x"
        code = main(["sweep", "--param", "eps", "--values", values, "--output-path", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --values entry {entry} of {values!r} is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("values", ["0.002,1e-12", "0.002,2.5"])
    def test_bad_value_rejected_before_any_pipeline(self, tmp_path, monkeypatch, values):
        # 1e-12 breaks the step cap, 2.5 the standard scheme's dt < 2
        calls = []
        real = cli.run_compare_pipeline
        monkeypatch.setattr(cli, "run_compare_pipeline",
                            lambda *args: calls.append(args) or real(*args))
        out = tmp_path / "s.csv"
        code = main(
            ["sweep", "--param", "dt", "--values", values, "--t-max", "200",
             "--output-path", str(out)]
        )
        assert code == 2
        assert calls == []
        assert not out.exists()

    def test_vdp_out_of_reach_rejected_before_any_pipeline(self, tmp_path, monkeypatch, capsys):
        # |a0|^2 underflows to 0 at 1e-200
        calls = []
        real = cli.run_compare_pipeline
        monkeypatch.setattr(cli, "run_compare_pipeline",
                            lambda *args: calls.append(args) or real(*args))
        out = tmp_path / "s.csv"
        code = main(
            ["sweep", "--kind", "vdp", "--param", "a0_re", "--values", "0.1,1e-200",
             "--dt", "0.002", "--t-max", "200", "--output-path", str(out)]
        )
        assert code == 2
        assert "underflows" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("small", ["1e-5", "1e-10"])
    def test_unresolved_third_harmonic_rejected_before_any_pipeline(
        self, tmp_path, monkeypatch, capsys, small
    ):
        calls = []
        real = cli.run_compare_pipeline
        monkeypatch.setattr(cli, "run_compare_pipeline",
                            lambda *args: calls.append(args) or real(*args))
        out = tmp_path / "s.csv"
        code = main(["sweep", "--param", "dt", "--values", f"1e-4,{small}", "--t-max", "1e-3",
                     "--output-path", str(out)])
        assert code == 2
        assert "is too small to resolve the third harmonic" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_each_row_is_checked_once(self, tmp_path, monkeypatch):
        # the boundary and the a0 check run once per row, before the
        # pipelines, which take the checked solution and run neither again
        calls, sols = [], []
        real_validate, real_solution = cli._validate, cli.GlobalSolution
        monkeypatch.setattr(cli, "_validate",
                            lambda cfg: calls.append(cfg) or real_validate(cfg))
        monkeypatch.setattr(cli, "GlobalSolution",
                            lambda *args: sols.append(args) or real_solution(*args))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--param=eps", "--values=0.005,0.01,0.02", "--t-max=5",
                     f"--output-path={out}"]) == 0
        assert [cfg.eps for cfg in calls] == [0.005, 0.01, 0.02]
        assert len(sols) == 3

    def test_unparsable_value_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["sweep", "--param", "eps", "--values", "0.01,abc", "--output-path", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad sweep value: ")
        assert not out.exists()

    def test_unknown_parameter_rejected(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--param", "t_max",
                "--values", "1,2",
                "--output-path", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "sweep parameter" in capsys.readouterr().err


class TestCheckOrder:
    """Every subcommand checks a config in one order (the fields, the scheme,
    the step count, the first-order record), so a config wrong twice is
    refused for the same fault."""

    @pytest.mark.parametrize(
        "wrong, message",
        [(["--dt=3", "--t-max=1"], "dt must lie in (0, 2), got 3.0"),
         (["--dt=1e-6", "--t-max=200"], "t_max/dt must be at most 100000000, got 200000000.0"),
         (["--dt=1e-5", "--t-max=1.4e-5"], "t_max must cover at least two steps")],
        ids=["scheme-before-steps", "steps-before-third-harmonic",
             "two-steps-before-third-harmonic"],
    )
    def test_every_subcommand_names_the_same_fault(self, tmp_path, capsys, wrong, message):
        out = tmp_path / "x.csv"
        errors = {}
        for command in (["simulate"], ["compare"], ["sweep", "--param=eps", "--values=0.01"]):
            assert main([*command, *wrong, f"--output-path={out}"]) == 2
            errors[command[0]] = capsys.readouterr().err
        assert errors == dict.fromkeys(errors, f"error: {message}\n")
        assert not out.exists()

    def test_sweep_refuses_its_first_rows_first_fault(self, tmp_path, capsys):
        # row 1's dt is too small to resolve the third harmonic, row 2's is
        # outside the scheme's range; each row is checked whole before the next
        out = tmp_path / "x.csv"
        assert main(["sweep", "--param=dt", "--values=1e-5,2.5", "--t-max=1e-3",
                     f"--output-path={out}"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: dt = 1e-05 is too small to resolve the third harmonic")
        assert not out.exists()


class TestOutputPath:
    def test_unwritable_path_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(["compare", "--t-max", "1", "--output-path", str(out)])
        assert code == 2
        assert "error: cannot write output:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["compare"],
                                         ["sweep", "--param=eps", "--values=0.01,0.02"]],
                             ids=["simulate", "compare", "sweep"])
    def test_failed_write_exits_two(self, monkeypatch, capsys, command):
        # a file that opens, then fails its first write and its close, as
        # one on a full device does
        full = OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(cli, "open", lambda path, mode: _FailingFile(full), raising=False)
        assert main([*command, "--t-max=1", "--output-path=x.csv"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot write output: [Errno 28] No space left on device\n")

    def test_broken_pipe_of_the_file_reaches_entry(self, monkeypatch):
        # exit 1 with no traceback, as for stdout (TestConfigFile)
        broken = BrokenPipeError(errno.EPIPE, "Broken pipe")
        monkeypatch.setattr(cli, "open", lambda path, mode: _FailingFile(broken), raising=False)
        with pytest.raises(BrokenPipeError):
            main(["simulate", "--t-max=1", "--output-path=x.csv"])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv, stdout_full", [
        (["compare", "--output-path=/dev/full"], False),
        (["simulate"], True),
        # the table goes to a file; the summary line fails at the final flush
        (["compare", "--output-path=OUT"], True),
    ], ids=["file", "stdout", "stdout-summary"])
    def test_full_device_exits_two_without_a_traceback(self, tmp_path, package_env, argv,
                                                       stdout_full):
        argv = [arg.replace("OUT", str(tmp_path / "cmp.csv")) for arg in argv]
        with open("/dev/full" if stdout_full else os.devnull, "wb") as stdout:
            proc = subprocess.run([sys.executable, "-m", "renormdiff", *argv, "--t-max=5"],
                                  stdout=stdout, stderr=subprocess.PIPE, env=package_env)
        assert proc.returncode == 2
        assert proc.stderr == b"error: cannot write output: [Errno 28] No space left on device\n"
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)  # the device is never removed

    @pytest.mark.skipif(resource is None, reason="needs resource.RLIMIT_FSIZE")
    def test_write_past_the_file_size_limit_leaves_no_file(self, tmp_path, package_env):
        # a compare document of 20001 rows passes 51200 bytes part way
        out = tmp_path / "x.csv"

        def limit():
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (51200, hard))

        proc = subprocess.run(
            [sys.executable, "-m", "renormdiff", "compare", "--t-max=200", f"--output-path={out}"],
            capture_output=True, env=package_env, preexec_fn=limit)
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"error: cannot write output: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["opened", "replaced", "device"])
    def test_failed_write_removes_only_the_file_it_opened(self, tmp_path, monkeypatch, capsys,
                                                          case):
        # the first piece reaches the path, then the write fails: the regular
        # file the run opened goes; a file that took the path over meanwhile,
        # or a link to a device, stays
        out, other = tmp_path / "x.csv", tmp_path / "other.csv"
        other.write_text("another run\n")
        if case == "device":
            out.symlink_to(os.devnull)

        class Cut(io.FileIO):
            def writelines(self, pieces):
                self.write(next(iter(pieces)))
                if case == "replaced":
                    os.replace(other, out)
                raise OSError(errno.EFBIG, "File too large")

        monkeypatch.setattr(cli, "open", lambda path, mode: Cut(path, mode), raising=False)
        assert main(["compare", "--t-max=1", f"--output-path={out}"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write output: [Errno {errno.EFBIG}] File too large\n")
        assert out.is_symlink() == (case == "device")
        assert out.exists() == (case != "opened")
        if case == "replaced":
            assert out.read_text() == "another run\n"

    def test_numerical_failure_leaves_existing_file(self, tmp_path):
        out = tmp_path / "keep.csv"
        out.write_text("earlier run\n")
        code = main(
            ["simulate", "--dt", "0.1", "--eps", "0.4", "--a0-re", "1e6", "--t-max", "10",
             "--output-path", str(out)]
        )
        assert code == 3
        assert out.read_text() == "earlier run\n"


# The cubic flow from a0 = 0.4 passes its overflow guard at step 5423, in the
# second guard block, while the oracle stays finite to step 6000: the rows of
# the first block, 0 .. 4095, are written before the failure.
LATE_FLOW = ["compare", "--kind=cubic", "--dt=0.1", "--t-max=600", "--eps=0.4", "--a0-re=0.4"]
LATE_FLOW_ERR = "numerical failure: amplitude flow exceeded 1000000000000.0 at step 5423\n"
# The Van der Pol oracle at the gain eps dt = 0.55 passes its divergence guard
# at z(4534), in the second guard block, after a first block that fails nowhere.
LATE_ORACLE = ["compare", "--kind=vdp", "--dt=0.1", "--eps=5.5", "--a0-re=0.4", "--a0-im=0.15",
               "--t-max=500"]
LATE_ORACLE_ERR = ("warning: eps = 5.5 is large for a first-order expansion; results are formal "
                   "only\nnumerical failure: |z(4534)| = 111729383.48707147 exceeded 100000000.0\n")


class TestStreamedOutput:
    """compare streams its rows: a file is written to a temporary file beside
    its resolved path and renamed over it on success, so a late failure
    leaves no new file and an existing one as it was; stdout gets the head and
    each chunk of rows as it is formed; a device is written directly."""

    @staticmethod
    def _listing(path):
        return sorted(p.name for p in path.iterdir())

    def test_late_failure_to_a_new_file_leaves_none(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main([*LATE_FLOW, f"--output-path={out}"]) == 3
        assert capsys.readouterr().err == LATE_FLOW_ERR
        assert self._listing(tmp_path) == []  # nor a temporary file

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_late_failure_leaves_an_existing_file_as_it_was(self, tmp_path, capsys, fmt):
        out = tmp_path / f"cmp.{fmt}"
        out.write_bytes(b"earlier run\n")
        assert main([*LATE_FLOW, f"--output-format={fmt}", f"--output-path={out}"]) == 3
        assert capsys.readouterr().err == LATE_FLOW_ERR
        assert out.read_bytes() == b"earlier run\n"
        assert self._listing(tmp_path) == [out.name]

    def test_late_failure_to_stdout_leaves_the_first_blocks_rows(self, capsys):
        # 5000 steps end before the overflow: that run's head and first 4096
        # rows are what the failing run wrote, with no summary after them
        assert main([*LATE_FLOW, "--t-max=500"]) == 0
        whole = capsys.readouterr().out.splitlines(keepends=True)
        assert main(LATE_FLOW) == 3
        got = capsys.readouterr()
        assert got.err == LATE_FLOW_ERR
        assert got.out == "".join(whole[: 1 + 4096])
        assert got.out.splitlines()[-1].startswith("4095,")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_late_oracle_failure_to_a_file_leaves_none(self, tmp_path, capsys, fmt):
        out = tmp_path / f"cmp.{fmt}"
        assert main([*LATE_ORACLE, f"--output-format={fmt}", f"--output-path={out}"]) == 3
        assert capsys.readouterr().err == LATE_ORACLE_ERR
        assert self._listing(tmp_path) == []

    def test_late_oracle_failure_to_stdout_leaves_the_first_blocks_rows(self, capsys):
        # the oracle runs a guard block at a time, so the rows of the blocks
        # before its failure are written, as a flow failure's are
        assert main([*LATE_ORACLE, "--t-max=450"]) == 0
        whole = capsys.readouterr().out.splitlines(keepends=True)
        assert main(LATE_ORACLE) == 3
        got = capsys.readouterr()
        assert got.err == LATE_ORACLE_ERR
        assert got.out == "".join(whole[: 1 + 4096])

    def test_late_oracle_failure_beats_an_early_flow_overflow(self, monkeypatch, capsys):
        # a flow that overflows in the first block stops the flow and the
        # rows, but the oracle runs on to its own failure, which wins
        real = cli.flow_path

        def overflowing(flow, state, steps):
            real(flow, state, steps=steps)
            raise OverflowError("amplitude flow exceeded 1000000000000.0 at step 7")

        monkeypatch.setattr(cli, "flow_path", overflowing)
        calls = _count_calls(monkeypatch, cli, "iterate")
        assert main(LATE_ORACLE) == 3
        assert capsys.readouterr() == ("", LATE_ORACLE_ERR)
        assert calls == {"iterate": 2}
        assert main([*LATE_ORACLE, "--t-max=450"]) == 3
        assert capsys.readouterr().err.endswith("at step 7\n")

    def test_late_failure_before_the_first_full_chunk_leaves_stdout_empty(self, capsys):
        # at stride 7 the first block's 586 rows fill no chunk of 1024
        assert main([*LATE_FLOW, "--stride=7"]) == 3
        assert capsys.readouterr() == ("", LATE_FLOW_ERR)

    def test_symlinked_path_keeps_its_link(self, tmp_path, capsys):
        target, link = tmp_path / "data" / "cmp.csv", tmp_path / "cmp.csv"
        target.parent.mkdir()
        target.write_text("earlier run\n")
        link.symlink_to(target)
        assert main([*LATE_FLOW, f"--output-path={link}"]) == 3
        assert link.is_symlink() and target.read_text() == "earlier run\n"
        assert main(["compare", "--t-max=1", f"--output-path={link}"]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text().startswith("n,t,z_oracle,")
        assert self._listing(target.parent) == [target.name]

    def test_new_file_gets_the_mode_of_open(self, tmp_path, capsys):
        umask = os.umask(0o022)
        try:
            out = tmp_path / "cmp.csv"
            assert main(["compare", "--t-max=1", f"--output-path={out}"]) == 0
            mode = stat.S_IMODE(out.stat().st_mode)
            with open(tmp_path / "by-open", "wb"):
                pass
            assert mode == stat.S_IMODE((tmp_path / "by-open").stat().st_mode) == 0o644
        finally:
            os.umask(umask)

    def test_replaced_file_keeps_its_permission_bits(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        out.write_text("earlier run\n")
        out.chmod(0o640)
        assert main(["compare", "--t-max=1", f"--output-path={out}"]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text().startswith("n,t,z_oracle,")

    @pytest.mark.parametrize("device, argv, code", [
        (os.devnull, ["compare", "--t-max=5"], 0),
        (os.devnull, LATE_FLOW, 3),
        ("/dev/full", ["compare", "--t-max=5"], 2),
    ], ids=["null", "null-late-failure", "full"])
    def test_a_device_is_written_directly(self, monkeypatch, capsys, device, argv, code):
        if not os.path.exists(device):
            pytest.skip(f"needs {device}")
        renamed = []
        monkeypatch.setattr(os, "replace", lambda *args: renamed.append(args))
        opened = []
        real_open = open
        monkeypatch.setattr(cli, "open", lambda path, mode: opened.append(path) or
                            real_open(path, mode), raising=False)
        assert main([*argv, f"--output-path={device}"]) == code
        assert len(capsys.readouterr().err.splitlines()) == (code != 0)
        assert renamed == [] and opened == [device]
        assert stat.S_ISCHR(os.stat(device).st_mode)


class _FailingFile:
    """An output file whose first write and whose close raise `error`; its
    descriptor is one of os.devnull, a device, so no failure removes it."""

    def __init__(self, error):
        self.error = error
        self.fd = os.open(os.devnull, os.O_WRONLY)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        os.close(self.fd)
        raise self.error

    def fileno(self):
        return self.fd

    def writelines(self, pieces):
        next(iter(pieces))
        raise self.error


def _ref_csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _ref_json_value(value):
    if value is None:
        return None
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def reference_table(header, columns, summary, output_format, stride=1):
    """The whole document, built one cell at a time: the writer's golden reference."""
    rows = range(0, len(columns[header[0]]), stride)
    if output_format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_ref_csv_cell(columns[name][i]) for name in header) for i in rows]
        if summary is not None:
            lines.append("# summary = " + json.dumps(summary, sort_keys=True))
        return "\n".join(lines) + "\n"
    doc = {"rows": [{name: _ref_json_value(columns[name][i]) for name in header} for i in rows]}
    if summary is not None:
        doc["summary"] = summary
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def expected_output(command, cfg, param=None, values=()):
    """What ``command`` must write for ``cfg``, from the pipeline's own columns."""
    if command == "sweep":
        summaries = [
            run_compare_pipeline(dataclasses.replace(cfg, **{param: v})) for v in values
        ]
        header = ["value", *summaries[0]]
        columns = {"value": list(values)}
        columns.update({key: [s[key] for s in summaries] for key in summaries[0]})
        assert any(None in columns[key] for key in header)  # the empty-cell rule runs
        return reference_table(header, columns, {"param": param}, cfg.output_format)
    # Every row, strided here: the pipeline's own rows at the stride must be these.
    columns, summary = collected(dataclasses.replace(cfg, stride=1))
    if command == "simulate":
        header = ["n", "t", "z"]
        columns = {"n": columns["n"], "t": columns["t"], "z": columns["z_oracle"]}
        summary = None
    else:
        header = list(columns)
    return reference_table(header, columns, summary, cfg.output_format, cfg.stride)


def assert_same_text(got, want):
    """Byte equality that reports the first difference (a full diff is too slow)."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(at - 60, 0)
    pytest.fail(
        f"output differs at offset {at} (lengths {len(got)}, {len(want)}): "
        f"{got[lo : at + 60]!r} != {want[lo : at + 60]!r}"
    )


CHUNK = writer._CHUNK_ROWS

# (command, format, stride, steps, destination, extra config); the step counts
# put the written rows below, exactly at and one past a writer chunk.
GOLDEN_CASES = {
    "compare-csv-1": ("compare", "csv", 1, 600, "file", {}),
    "compare-json-1": ("compare", "json", 1, 600, "file", {"kind": "vdp", "a0_im": -0.05}),
    "compare-csv-7-stdout": ("compare", "csv", 7, 600, "stdout", {}),
    "compare-json-7": ("compare", "json", 7, 600, "file", {}),
    "compare-csv-chunk": ("compare", "csv", 1, CHUNK - 1, "file", {}),
    "compare-json-chunk-plus-one-stdout": ("compare", "json", 1, CHUNK, "stdout", {}),
    "compare-csv-7-chunk-plus-one": ("compare", "csv", 7, 7 * CHUNK, "file", {}),
    "compare-csv-stride-over-chunk": ("compare", "csv", CHUNK + 1, 3 * CHUNK, "file", {}),
    "compare-json-stride-over-chunk": ("compare", "json", CHUNK + 1, 3 * CHUNK, "stdout", {}),
    "simulate-csv-3-stdout": ("simulate", "csv", 3, 600, "stdout", {}),
    "simulate-json-1": ("simulate", "json", 1, 600, "file", {"kind": "vdp"}),
}


class TestWriterGolden:
    """The chunked writer against a per-cell reference, byte for byte."""

    @staticmethod
    def _run(argv, fmt, destination, tmp_path, capsys):
        out = tmp_path / f"out.{fmt}"
        flags = ["--output-format", fmt]
        if destination == "file":
            flags += ["--output-path", str(out)]
        capsys.readouterr()
        assert main(argv + flags) == 0
        stdout = capsys.readouterr().out
        return out.read_text(encoding="utf-8") if destination == "file" else stdout

    @pytest.mark.parametrize("case", list(GOLDEN_CASES))
    def test_table_matches_reference(self, case, tmp_path, capsys):
        command, fmt, stride, steps, destination, extra = GOLDEN_CASES[case]
        dt = 0.05
        fields = {"dt": dt, "eps": 0.02, "a0_re": 0.4, "a0_im": 0.1, "t_max": steps * dt,
                  "stride": stride, **extra}
        argv = [command] + [f"--{k.replace('_', '-')}={v}" for k, v in fields.items()]
        cfg = ExperimentConfig(output_format=fmt, **fields)
        got = self._run(argv, fmt, destination, tmp_path, capsys)
        assert_same_text(got, expected_output(command, cfg))

    @pytest.mark.parametrize("fmt, destination", [("csv", "file"), ("json", "stdout")])
    def test_sweep_with_empty_cell_matches_reference(self, fmt, destination, tmp_path, capsys):
        # t_max = 3 ends before a full period, so period_oracle is None
        argv = ["sweep", "--param", "eps", "--values", "0.01,0.02", "--dt", "0.01",
                "--t-max", "3"]
        cfg = ExperimentConfig(dt=0.01, t_max=3.0, output_format=fmt)
        got = self._run(argv, fmt, destination, tmp_path, capsys)
        assert_same_text(got, expected_output("sweep", cfg, "eps", [0.01, 0.02]))


class TestWriterFallback:
    """Cells the g17 kernels leave to their fallback, and integer cells,
    through the chunked writer against the per-cell reference."""

    @staticmethod
    def _check(columns, stride=1):
        summary = {"note": 1}
        # The writer writes every row it is given; the pipeline applies the stride.
        strided = {name: column[::stride] for name, column in columns.items()}
        got = "".join(writer.table_text("csv", strided, summary))
        assert_same_text(got, reference_table(list(columns), columns, summary, "csv", stride))

    @pytest.mark.parametrize("stride", [1, 3])
    def test_special_floats_across_a_chunk_boundary(self, stride):
        n = 2 * CHUNK + 5
        rng = np.random.default_rng(12)
        x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
        specials = [0.0, -0.0, 5e-324, 1e-300, 1e300, float("nan"), float("inf"), float("-inf")]
        x[CHUNK - 4 : CHUNK + 4] = specials  # rows CHUNK - 4 .. CHUNK + 3
        x[-len(specials) :] = specials
        self._check({"n": np.arange(n), "x": x, "y": -x[::-1].copy()}, stride)

    def test_integer_columns(self):
        values = [0, -1, 7, -123456789, 2**63 - 1, -(2**63), 10**18, -(10**18) + 3]
        big = np.array(values * 700, dtype=np.int64)  # 5600 rows, over a chunk
        unsigned = np.array([0, 1, 2**64 - 1, 10**19] * 1400, dtype=np.uint64)
        self._check({"i": big, "u": unsigned, "x": big.astype(float)})

    @pytest.mark.parametrize("stride", [1, 3])
    def test_json_special_values_across_a_chunk_boundary(self, stride):
        # The pipeline never writes these, so the golden cases cannot reach them.
        n = 2 * CHUNK + 5
        rng = np.random.default_rng(13)
        x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
        specials = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, float("nan"), float("inf"),
                    float("-inf"), 1.0, 1e16, 0.1]
        x[CHUNK - 5 : CHUNK + 6] = specials  # rows CHUNK - 5 .. CHUNK + 5
        x[-len(specials) :] = specials
        ints = np.array([0, -1, 10**16, -(2**63), 2**63 - 1, 42] * n, dtype=np.int64)[:n]
        columns = {"z": x, "b": -x[::-1].copy(), "n": ints, "u": ints.astype(np.uint64)}
        summary = {"note": 1}
        strided = {name: column[::stride] for name, column in columns.items()}
        got = "".join(writer.table_text("json", strided, summary))
        rows = [{name: columns[name][i].item() for name in columns} for i in range(0, n, stride)]
        want = json.dumps({"rows": rows, "summary": summary}, indent=1, sort_keys=True) + "\n"
        assert_same_text(got, want)
        if stride == 1:
            assert all(f'"z": {text}\n' in got for text in ("-0.0", "5e-324", "NaN", "-Infinity"))


class TestWriterChunks:
    """One byte matrix per document, with a small _CHUNK_ROWS: every chunk
    rewrites its cells, a short last chunk its leading rows, and a list
    column keeps one width for the whole document."""

    @staticmethod
    def _columns(rows):
        rng = np.random.default_rng(rows)
        x = rng.normal(size=rows) * 10.0 ** rng.integers(-9, 9, rows)
        # widths differ from chunk to chunk: short and empty cells first,
        # the widest texts in the last rows
        label = [None if i % 3 == 0 else float(i) if i < 5 else -x[i] * 1e-300
                 for i in range(rows)]
        return {"n": np.arange(rows), "x": x, "label": label, "y": -x[::-1].copy()}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows", [1, 4, 5, 13], ids=["one", "chunk", "chunk+1", "2chunk+5"])
    def test_document_matches_reference(self, monkeypatch, tmp_path, fmt, rows):
        monkeypatch.setattr(writer, "_CHUNK_ROWS", 4)
        columns = self._columns(rows)
        summary = {"note": 1}
        cfg = ExperimentConfig(output_format=fmt, output_path=str(tmp_path / f"out.{fmt}"))
        pieces = list(writer.table_text(fmt, columns, summary))
        assert len(pieces) == 2 + -(-rows // 4)  # head, one piece per chunk, tail
        got = "".join(pieces)
        header = list(columns) if fmt == "csv" else sorted(columns)
        assert_same_text(got, reference_table(header, columns, summary, fmt))
        if fmt == "json":  # the trim after the last row leaves valid JSON
            assert len(json.loads(got)["rows"]) == rows
        cli._write_table(cfg, columns, summary)
        assert (tmp_path / f"out.{fmt}").read_bytes() == got.encode()


class TestWriterNoRows:
    """A document with no row is the one its reference would give: a CSV
    header with no row, or JSON's "rows": []."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("summary", [None, {"note": 1}], ids=["no-summary", "summary"])
    def test_columns_of_no_rows(self, fmt, summary):
        columns = {"n": np.arange(0), "x": np.zeros(0), "label": []}
        got = b"".join(writer.table_bytes(fmt, columns, summary)).decode()
        header = list(columns) if fmt == "csv" else sorted(columns)
        assert got == reference_table(header, columns, summary, fmt)
        if fmt == "json":
            want = {"rows": []} if summary is None else {"rows": [], "summary": summary}
            assert json.loads(got) == want
        else:
            assert got.splitlines()[0] == "n,x,label"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_block(self, fmt):
        # no block fixes no column: CSV's header is the join of none
        summary = {"note": 1}
        got = b"".join(writer.Document(fmt).end(summary)).decode()
        if fmt == "json":
            want = json.dumps({"rows": [], "summary": summary}, indent=1, sort_keys=True)
            assert got == want + "\n"
        else:
            assert got == "\n# summary = " + json.dumps(summary, sort_keys=True) + "\n"


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_PART = st.just(0.0) | st.builds(lambda sign, size: sign * size, st.sampled_from([1.0, -1.0]),
                                 _log_uniform(1e-6, 1e3))
_EPS = st.just(0.0) | _log_uniform(1e-8, 50.0)


def _cells_are_finite(text, fmt):
    """Every data cell of a document, and every number of its summary, is
    finite; a summary value may be null (an empty CSV cell in a sweep row)."""
    if fmt == "json":
        doc = json.loads(text)
        values = [v for row in doc["rows"] for v in row.values()]
        summary = doc.get("summary", {})
    else:
        lines = text.splitlines()[1:]
        comments = [ln for ln in lines if ln.startswith("# summary = ")]
        values = [None if cell == "" else float(cell) for ln in lines if ln not in comments
                  for cell in ln.split(",")]
        summary = summary_from_comments(comments) if comments else {}
    values += [v for v in summary.values() if not isinstance(v, str)]
    return all(v is None or math.isfinite(v) for v in values)


class TestExitContract:
    """Any config, drawn at random: the exit code is 0, 2 or 3; exit 0 writes
    finite numbers only; exit 2 or 3 leaves no new file and says why in one
    stderr line, and exit 3 names the step where it happened.  The only
    warning is the one of an eps above 0.5, which stderr gets as one line of
    its own, `warning: eps = ... is large ...`, before the error's."""

    @settings(max_examples=800, deadline=None)
    @given(command=st.sampled_from(["simulate", "compare", "sweep"]),
           kind=st.sampled_from(["cubic", "vdp"]), scheme=st.sampled_from(["standard", "mickens"]),
           dt=_log_uniform(1e-4, 3.3), eps=_EPS, sweep=st.lists(_EPS, min_size=1, max_size=3),
           a0=st.tuples(_PART, _PART), steps=st.integers(2, 3000), stride=st.sampled_from([1, 7]),
           fmt=st.sampled_from(["csv", "json"]), to_file=st.booleans())
    def test_exit_code_output_and_message(self, command, kind, scheme, dt, eps, sweep, a0, steps,
                                          stride, fmt, to_file):
        argv = [command, f"--kind={kind}", f"--scheme={scheme}", f"--dt={dt!r}",
                f"--t-max={steps * dt!r}", f"--a0-re={a0[0]!r}", f"--a0-im={a0[1]!r}",
                f"--output-format={fmt}"]
        if command == "sweep":
            argv += ["--param=eps", "--values=" + ",".join(map(repr, sweep))]
        else:
            argv += [f"--eps={eps!r}", f"--stride={stride}"]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out." + fmt)
            if to_file:
                argv.append(f"--output-path={path}")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always", UserWarning)
                code = main(argv)
            written = os.listdir(tmp)
            text = open(path, encoding="utf-8").read() if written else out.getvalue()
        assert code in (0, 2, 3), (code, err.getvalue())
        # each warning is a stderr line, not a recorded warning
        assert warned == []
        lines = err.getvalue().splitlines()
        large = {f"warning: eps = {float(value)} is large for a first-order expansion; "
                 "results are formal only" for value in (sweep if command == "sweep" else [eps])
                 if float(value) > 0.5}
        warning_lines = [line for line in lines if line.startswith("warning: ")]
        assert set(warning_lines) <= large, err.getvalue()
        assert len(warning_lines) <= 1 or command == "sweep", err.getvalue()
        if code == 0:
            assert written == ([os.path.basename(path)] if to_file else [])
            assert _cells_are_finite(text, fmt), argv
            assert lines == warning_lines, err.getvalue()
            return
        assert written == []
        assert lines[:-1] == warning_lines, err.getvalue()
        if code == 3:
            assert re.search(r"(at n=|at step |z\()\d+", lines[-1]), err.getvalue()


class TestConfigFile:
    def test_file_values_and_flag_overrides(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# experiment configuration\n"
            "kind = cubic\n"
            "dt = 0.05\n"
            "eps = 0.02\n"
            "t_max = 30  # short run\n"
        )
        out = tmp_path / "out.csv"
        code = main(
            [
                "simulate",
                "--config", str(cfg_file),
                "--eps", "0",  # override wins
                "--output-path", str(out),
            ]
        )
        assert code == 0
        _, rows, _ = read_csv(out)
        assert rows.shape[0] == 601  # t_max / dt + 1 from the file

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("frequency = 3\n")
        code = main(["simulate", "--config", str(cfg_file)])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2

    @staticmethod
    def _run_file(tmp_path, capsys, text):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "out.csv"
        code = main(["simulate", "--config", str(cfg_file), "--output-path", str(out)])
        return code, capsys.readouterr().err, cfg_file

    @pytest.mark.parametrize(
        "field, message",
        [
            ("kind", "kind must be one of ('cubic', 'vdp'), got 'bogus'"),
            ("root_convention", "root_convention must be one of ('exact',), got 'bogus'"),
            ("scheme", "scheme must be one of ('standard', 'mickens'), got 'bogus'"),
            ("output_format", "output_format must be one of ('csv', 'json'), got 'bogus'"),
        ],
    )
    def test_bad_choice_in_file_rejected(self, tmp_path, capsys, field, message):
        code, err, _ = self._run_file(tmp_path, capsys, f"t_max = 1\n{field} = bogus\n")
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("kind = vdp\nvdp_halving = 1\n", "2: unknown config key 'vdp_halving'"),
            ("kappa_convention = one-plus-c\n", "1: unknown config key 'kappa_convention'"),
            ("t_max = 1\nstride = 2.5\n", "2: stride expects an integer, got '2.5'"),
            ("dt = abc\n", "1: dt expects a number, got 'abc'"),
            ("# a comment\n\ndt 0.1\n", "3: expected key=value, got 'dt 0.1'"),
            ("t-max = 1\n", "1: unknown config key 't-max'"),
        ],
    )
    def test_unreadable_line_named(self, tmp_path, capsys, text, message):
        code, err, cfg_file = self._run_file(tmp_path, capsys, text)
        assert code == 2
        assert err == f"error: {cfg_file}:{message}\n"

    @pytest.mark.parametrize(
        "line, path",
        [
            ("output_path = runs#1.csv\n", "runs#1.csv"),
            ("output_path = runs.csv\t# after a tab\n", "runs.csv"),
            ("output_path = runs#1.csv  # run 1\n", "runs#1.csv"),
            ("output_path=runs.csv #no space after the hash\n", "runs.csv"),
        ],
    )
    def test_hash_starts_a_comment_only_after_whitespace(self, tmp_path, monkeypatch, line,
                                                         path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text("t_max = 1\n" + line)
        assert main(["simulate", "--config", "exp.cfg"]) == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(["exp.cfg", path])

    # A value other than the default for every field that has one, as it is
    # written in a config file and after its flag; root_convention has the
    # one choice, its default.
    _FIELD_TEXT = {
        "kind": "vdp", "dt": "0.02", "eps": "0.03", "a0_re": "0.3", "a0_im": "-0.1",
        "t_max": "2.5", "root_convention": "exact", "scheme": "mickens",
        "output_path": "runs.csv", "output_format": "json", "stride": "3",
    }

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_field_reads_the_same_from_file_and_flag(self, tmp_path, field):
        text = self._FIELD_TEXT[field]
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"{field} = {text}\n")
        parser = cli.build_parser()
        from_file = cli._resolve_config(parser.parse_args(["simulate", "--config", str(cfg_file)]))
        flag = "--" + field.replace("_", "-")
        from_flag = cli._resolve_config(parser.parse_args(["simulate", f"{flag}={text}"]))
        assert from_file == from_flag
        value = getattr(from_file, field)
        assert type(value) is cli._TYPES[field]
        assert value != getattr(ExperimentConfig(), field) or cli._CHOICES[field] == (value,)

    def test_bad_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_module_entry_point(self, tmp_path, package_env):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "renormdiff", "simulate", "--dt", "0.1",
             "--eps", "0", "--t-max", "5", "--output-path", str(out)],
            capture_output=True,
            env=package_env,
        )
        assert proc.returncode == 0
        assert out.read_text().startswith("n,t,z")

    @pytest.mark.parametrize(
        "argv, first_line",
        [
            (["simulate"], b"n,t,z\n"),
            (["simulate", "--output-format=json"], b"{\n"),
            (["compare"], b"n,t,z_oracle,z_naive,z_renorm_discrete,z_renorm_continuum,"
                          b"err_naive,err_renorm\n"),
        ],
        ids=["simulate", "simulate-json", "compare"],
    )
    def test_reader_closing_early_exits_one_quietly(self, tmp_path, package_env, argv,
                                                    first_line):
        # `renormdiff simulate --t-max 1000 | head -1`: 1e5 rows, megabytes of
        # text, far more than a pipe buffers, so the writer meets the closed pipe.
        with open(tmp_path / "err", "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "renormdiff", *argv, "--t-max", "1000"],
                stdout=subprocess.PIPE, stderr=err, env=package_env,
            )
            assert proc.stdout.readline() == first_line
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            err.seek(0)
            assert err.read() == b""


class TestFlags:
    """Every config field is one flag, --<field with dashes>, stored in the field."""

    @pytest.mark.parametrize("command", ["simulate", "compare", "sweep"])
    def test_flags_map_to_fields(self, command):
        parser = cli.build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = [a for a in subparsers.choices[command]._actions
                   if not isinstance(a, argparse._HelpAction)]
        got = {flag: action.dest for action in actions for flag in action.option_strings}
        want = {"--config": "config"}
        for field in dataclasses.fields(ExperimentConfig):
            want["--" + field.name.replace("_", "-")] = field.name
        if command == "sweep":
            want.update({"--param": "param", "--values": "values"})
        assert got == want
        for action in actions:
            assert action.choices == cli._CHOICES.get(action.dest)
        choice_flags = {a.option_strings[0] for a in actions if a.choices is not None}
        assert choice_flags == {"--kind", "--root-convention", "--scheme", "--output-format"}

    @pytest.mark.parametrize(
        "flag", ["--vdp-halving", "--no-vdp-halving", "--kappa-convention=one-plus-c"])
    @pytest.mark.parametrize(
        "command", [["simulate"], ["compare"], ["sweep", "--param=eps", "--values=0.01,0.02"]],
        ids=["simulate", "compare", "sweep"],
    )
    def test_halving_flags_unrecognized(self, tmp_path, capsys, command, flag):
        # for the centred-difference Van der Pol forcing, pass half the eps;
        # the Van der Pol envelope has the one kappa = 1 + c^2
        out = tmp_path / "x.csv"
        code = main([*command, "--kind=vdp", flag, "--t-max=5", f"--output-path={out}"])
        assert code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestExactRootsOnly:
    """Every subcommand runs at the exact roots: first-order roots, from a flag
    or a config file, are refused before any oracle step."""

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "command", [["simulate"], ["compare"], ["sweep", "--param=eps", "--values=0.01,0.02"]],
        ids=["simulate", "compare", "sweep"],
    )
    def test_first_order_roots_refused(self, tmp_path, monkeypatch, capsys, command, source):
        calls = _count_calls(monkeypatch, cli, "iterate")
        out = tmp_path / "x.csv"
        if source == "flag":
            flags = ["--root-convention=first-order"]
            message = ("argument --root-convention: invalid choice: 'first-order' "
                       "(choose from 'exact')")
        else:
            cfg_file = tmp_path / "exp.cfg"
            cfg_file.write_text("root_convention = first-order\n")
            flags = ["--config", str(cfg_file)]
            message = "error: root_convention must be one of ('exact',), got 'first-order'\n"
        assert main([*command, *flags, "--t-max=5", f"--output-path={out}"]) == 2
        assert message in capsys.readouterr().err
        assert calls == {"iterate": 0}
        assert not out.exists()


class TestHugeStride:
    """A stride past the step cap, from a flag or a config file, is refused
    at the boundary: no run has that many steps, and at 2^63 or more numpy
    would build an object array of rows."""

    @pytest.mark.parametrize("stride", [10**8 + 1, 2**63])
    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "command", [["simulate"], ["compare"], ["sweep", "--param=eps", "--values=0.01,0.02"]],
        ids=["simulate", "compare", "sweep"],
    )
    def test_refused_before_the_oracle(self, tmp_path, monkeypatch, capsys, command, source,
                                       stride):
        calls = _count_calls(monkeypatch, cli, "iterate")
        out = tmp_path / "x.json"
        if source == "flag":
            flags = [f"--stride={stride}"]
        else:
            cfg_file = tmp_path / "exp.cfg"
            cfg_file.write_text(f"stride = {stride}\n")
            flags = ["--config", str(cfg_file)]
        assert main([*command, *flags, "--t-max=5", "--output-format=json",
                     f"--output-path={out}"]) == 2
        assert capsys.readouterr().err == f"error: stride must be at most 100000000, got {stride}\n"
        assert calls == {"iterate": 0}
        assert not out.exists()


class TestPipelineDefaults:
    def test_defaults_run(self):
        cols, summary = collected(ExperimentConfig(t_max=10.0))
        assert len(cols["n"]) == 1001
        assert summary["max_err_naive"] >= 0.0

    def test_vdp_needs_nonzero_real_amplitude(self):
        cfg = ExperimentConfig(kind="vdp", a0_re=0.0)
        with pytest.raises(ValueError):
            run_compare_pipeline(_validated(cfg))


class TestOracleStartsOnTheDiscreteForm:
    """The oracle's z(0) and z(1), from the first-order bridge, are the
    discrete renormalized column's first two rows to a few ulp, wherever the
    flow's first step is at most half the amplitude, |r| |a0|^2 <= 1/2."""

    @settings(max_examples=500, deadline=None)
    @given(kind=st.sampled_from(["cubic", "vdp"]), scheme=st.sampled_from(["standard", "mickens"]),
           dt=st.floats(1e-3, 1.0), eps=st.floats(0.0, 0.5), size=st.floats(1e-3, 10.0),
           phase=st.floats(-math.pi, math.pi))
    def test_first_two_rows_within_8_ulp(self, kind, scheme, dt, eps, size, phase):
        # dt <= 1 and eps <= 1/2 keep the Van der Pol gain eps mu/dt <= 1/2,
        # where the oracle's step cannot be singular
        first = first_order(Variant(kind), SchemeParams(dt=dt, eps=eps, scheme=Scheme(scheme)))
        if first.rate:
            size = min(size, math.sqrt(0.5 / abs(first.rate)))
        a0 = cmath.rect(size, phase)
        cfg = ExperimentConfig(kind=kind, scheme=scheme, dt=dt, eps=eps, a0_re=a0.real,
                               a0_im=a0.imag, t_max=2.0 * dt)
        columns, _ = collected(cfg)
        for k, a in enumerate((a0, a0 + first.rate * monomial(first.kind, a0))):
            scale = 2.0 * abs(a) * (1.0 + eps * abs(first.k3) * abs(a) ** 2)
            gap = abs(columns["z_oracle"][k] - columns["z_renorm_discrete"][k])
            assert gap <= 8.0 * np.spacing(scale), (k, gap / np.spacing(scale))


def _per_step_fold(flow, a0, steps):
    """The amplitude flow, one call per step."""
    a = complex(a0)
    path = [a]
    for _ in range(steps):
        a = a + flow(a)
        path.append(a)
    return np.array(path, dtype=complex)


def _naive_per_term(kind, params, a0, n):
    """The full six-term naive sum, one exponential per harmonic term."""
    naive = zeroth_order(a0, params) + first_order_solution(kind, a0, params).scaled(params.eps)
    z_naive = np.zeros(n.shape, dtype=complex)
    for term in naive.terms:
        grow = np.exp(n * cmath.log(term.base))
        if term.n_power == 1:
            grow = grow * n
        z_naive = z_naive + term.coeff * grow
    return z_naive.real


def _cube(u):
    return u * u * u


def _pow3(u):
    return u**3


def _reference_columns(cfg, cube=_cube):
    """The three model columns by formulas that share no work: the naive
    expansion's lam_p half at the record's rate and k3, the per-step fold,
    and exp(n log lam_p) per form.  `cube` forms the third harmonic from
    the fundamental mode."""
    kind, params = Variant(cfg.kind), cli._scheme_params(cfg)
    a0 = complex(cfg.a0_re, cfg.a0_im)
    n = np.arange(cli._steps(cfg) + 1).astype(float)
    lam_p = characteristic_roots(params)[0]
    first = first_order(kind, params)
    k3 = first.k3
    fundamental = np.exp(n * cmath.log(lam_p))
    z_naive = ((a0 + first.rate * monomial(kind, a0) * n) * fundamental
               + params.eps * k3 * (a0 * a0 * a0) * cube(fundamental))

    def modes(amp):
        mode = amp * np.exp(n * cmath.log(lam_p))
        return 2.0 * (mode + params.eps * k3 * cube(mode)).real

    continuum = continuum_amplitude(kind, a0, first.rate / params.dt, n * cfg.dt)
    flow = _per_step_fold(build_flow(first), a0, n.size - 1)
    return {"z_naive": 2.0 * z_naive.real, "z_renorm_discrete": modes(flow),
            "z_renorm_continuum": modes(continuum)}


def _count_exp_calls(monkeypatch, size, run):
    """Run `run()` and count the np.exp calls on `size` elements it makes."""
    real_exp = np.exp
    sizes = []

    def counted_exp(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted_exp)
    try:
        result = run()
    finally:
        monkeypatch.undo()
    return sizes.count(size), result


class TestPipelineWork:
    """One run_compare_pipeline evaluates each exponential table once per step."""

    @pytest.mark.parametrize(
        "cfg",
        [ExperimentConfig(t_max=20.0, a0_im=0.1),
         ExperimentConfig(kind="vdp", t_max=20.0, eps=0.02, a0_re=0.3, a0_im=0.15)],
        ids=["cubic", "vdp"],
    )
    def test_two_exponential_tables_and_the_same_bytes(self, monkeypatch, cfg):
        calls, (columns, _) = _count_exp_calls(
            monkeypatch, cli._steps(cfg) + 1, lambda: collected(cfg))
        # lam_p^n for the naive expansion and both renormalized forms, and the
        # continuum amplitude
        assert calls == 2
        reference = _reference_columns(cfg)
        for name, want in reference.items():
            if name == "z_renorm_discrete":
                # each flow folds one real recurrence (the cubic turn, the
                # Van der Pol scale), within rounding of the per-step complex
                # fold
                gap = np.max(np.abs(columns[name] - want))
                assert gap <= 1e-12 * np.max(np.abs(want)), name
            else:
                assert columns[name].tobytes() == want.tobytes(), name
        # the cube rounds apart from numpy's complex pow, by an ulp of the column
        for name, want in _reference_columns(cfg, cube=_pow3).items():
            gap = np.max(np.abs(reference[name] - want))
            assert gap <= 1e-15 * np.max(np.abs(want)), name
        n = np.arange(cli._steps(cfg) + 1).astype(float)
        per_term = _naive_per_term(Variant(cfg.kind), cli._scheme_params(cfg),
                                   complex(cfg.a0_re, cfg.a0_im), n)
        assert np.all(np.abs(columns["z_naive"] - per_term) <= 1e-12 * np.max(np.abs(per_term)))

    def test_eps_sweep_builds_the_grid_tables_once(self, monkeypatch, tmp_path):
        argv = ["sweep", "--param=eps", "--values=0.005,0.01,0.02,0.04", "--t-max=20",
                f"--output-path={tmp_path / 'sweep.csv'}"]
        calls, code = _count_exp_calls(monkeypatch, 2001, lambda: main(argv))
        assert code == 0
        # lam_p^n once, and one continuum amplitude per row
        assert calls == 1 + 4

    @pytest.mark.parametrize("kind, stride", [("cubic", 1), ("vdp", 7)])
    def test_compare_forms_lam_p_n_a_block_at_a_time(self, monkeypatch, tmp_path, kind, stride):
        # 2001 steps in 97-step blocks: 21 spans that tile the grid once
        monkeypatch.setattr(oracle, "_GUARD_BLOCK", 97)
        spans = []
        original = cli.discrete_fundamental

        def recorded(params, n):
            spans.append(np.array(n))
            return original(params, n)

        monkeypatch.setattr(cli, "discrete_fundamental", recorded)
        assert main(["compare", f"--kind={kind}", "--t-max=20", "--a0-re=0.4",
                     f"--stride={stride}", f"--output-path={tmp_path / 'cmp.csv'}"]) == 0
        assert max(span.size for span in spans) <= 97
        assert np.concatenate(spans).tobytes() == np.arange(2001).tobytes()
        spans.clear()
        assert main(["sweep", "--param=eps", "--values=0.01,0.02,0.04", "--t-max=20",
                     f"--output-path={tmp_path / 'sweep.csv'}"]) == 0
        # an eps sweep shares one table between its rows, and blocks slice it
        assert [span.size for span in spans] == [2001]


class TestPipelineBlocks:
    """The pipeline's pass over blocks of steps gives the bytes of one block,
    but for the low bits of the slopes, whose sums are taken per block."""

    @pytest.mark.parametrize("kind", ["cubic", "vdp"])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_block_size_moves_no_byte(self, monkeypatch, kind, stride):
        # 2001 steps: one block by default, 21 blocks of 97 steps, whose
        # boundaries fall inside a stride
        cfg = ExperimentConfig(kind=kind, t_max=20.0, eps=0.02, a0_re=0.4, a0_im=0.15,
                               stride=stride)
        columns, summary = collected(cfg)
        monkeypatch.setattr(oracle, "_GUARD_BLOCK", 97)
        blocked, blocked_summary = collected(cfg)
        assert list(blocked_summary) == list(summary)
        for key, want in summary.items():
            if key.startswith("slope_err_"):
                # each within growth_slope's bound of np.polyfit, so within twice it
                bound = 2e-13 * summary["max_err_" + key[10:]] / cfg.t_max
                assert abs(blocked_summary[key] - want) <= bound, key
            else:
                assert repr(blocked_summary[key]) == repr(want), key
        assert list(blocked) == list(columns)
        for name, column in columns.items():
            assert len(column) == len(range(0, 2001, stride)), name
            assert blocked[name].tobytes() == column.tobytes(), name

    def test_summary_alone_keeps_no_rows(self, monkeypatch):
        # without a row consumer the pipeline forms no row and assembles no
        # discrete column, and its summary is the one of a run that writes
        cfg = ExperimentConfig(kind="vdp", t_max=20.0, eps=0.02, a0_re=0.4, stride=3)
        _, summary = collected(cfg)
        calls = _count_calls(monkeypatch, cli, "assemble_modes")
        alone = run_compare_pipeline(cfg)
        assert repr(alone) == repr(summary)
        assert calls == {"assemble_modes": 0}

    def test_sweep_runs_the_flow_and_assembles_no_column(self, monkeypatch, tmp_path):
        # the flow runs for its guard; no summary key reads the discrete column
        calls = _count_calls(monkeypatch, cli, "flow_path", "assemble_modes")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--param=eps", "--values=0.01,0.02", "--t-max=20",
                     f"--output-path={out}"]) == 0
        assert calls == {"flow_path": 2, "assemble_modes": 0}

    def test_discrete_column_is_assembled_per_block_at_its_written_rows(self, monkeypatch):
        # 2001 steps in 97-step blocks, 286 written rows at stride 7: each
        # block assembles its own rows, from the flow path at those rows
        monkeypatch.setattr(oracle, "_GUARD_BLOCK", 97)
        cfg = ExperimentConfig(t_max=20.0, stride=7)
        calls = []
        original = cli.assemble_modes

        def recorded(first, amplitudes, fundamental):
            calls.append(amplitudes.copy())
            return original(first, amplitudes, fundamental)

        monkeypatch.setattr(cli, "assemble_modes", recorded)
        columns, _ = collected(cfg)
        assert len(columns["n"]) == 286
        assert [a.size for a in calls] == [len(range(-(-lo // 7) * 7, min(lo + 97, 2001), 7))
                                           for lo in range(0, 2001, 97)]
        first = first_order(Variant(cfg.kind), cli._scheme_params(cfg))
        path = cli.flow_path(build_flow(first), complex(cfg.a0_re, cfg.a0_im), steps=2000)
        assert np.concatenate(calls).tobytes() == path[::7].tobytes()

    @pytest.mark.parametrize("steps", [1940, 1941, 1942])
    def test_flow_runs_in_the_guard_blocks_of_a_whole_run(self, monkeypatch, steps):
        # 97-step blocks, the last with one, two or three rows: each block
        # runs the flow one step past its rows, so its cumulative products
        # cover the guard blocks of one whole run, and a one-step product,
        # which numpy's complex multiply may round apart, falls where that
        # run's does.  The turn here is fast enough to show it.
        monkeypatch.setattr(oracle, "_GUARD_BLOCK", 97)
        cfg = ExperimentConfig(dt=0.1, eps=0.4, a0_re=0.3, a0_im=0.05, t_max=steps * 0.1)
        assert cli._steps(cfg) == steps
        amplitudes, flow_steps = [], []
        real_assemble, real_flow = cli.assemble_modes, cli.flow_path
        monkeypatch.setattr(cli, "assemble_modes", lambda first, a, f: amplitudes.append(a.copy())
                            or real_assemble(first, a, f))
        monkeypatch.setattr(cli, "flow_path", lambda flow, a0, steps: flow_steps.append(steps)
                            or real_flow(flow, a0, steps=steps))
        collected(cfg)
        first = first_order(Variant.CUBIC, cli._scheme_params(cfg))
        path = real_flow(build_flow(first), complex(cfg.a0_re, cfg.a0_im), steps=steps)
        assert np.concatenate(amplitudes).tobytes() == path.tobytes()
        assert flow_steps == [min(97, steps - lo) for lo in range(0, steps + 1, 97)]

    @staticmethod
    def _spoil(monkeypatch, owner, name, step, value):
        """Replace `owner.name` by a wrapper that writes `value` at `step` of
        its result.  A call's steps are its argument `n`, found by name, when
        the function has one; otherwise the results are taken as consecutive
        blocks from step 0."""
        original = getattr(owner, name)
        signature = inspect.signature(original)
        done = [0]

        def spoiled(*args, **kwargs):
            out = original(*args, **kwargs)
            steps = signature.bind(*args, **kwargs).arguments.get("n")
            at = np.arange(done[0], done[0] + out.size) if steps is None else steps
            done[0] += out.size
            out[at == step] = value
            return out

        monkeypatch.setattr(owner, name, spoiled)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column, step", [("naive", 402), ("continuum", 250),
                                              ("continuum", 291), ("continuum", 96)])
    def test_running_maximum_check_names_the_step(self, monkeypatch, capsys, value, column,
                                                   step):
        # 97-step blocks: 96 ends the first block, 291 starts the fourth
        monkeypatch.setattr(oracle, "_GUARD_BLOCK", 97)
        if column == "naive":
            self._spoil(monkeypatch, cli, "naive_solution", step, value)
        else:
            self._spoil(monkeypatch, cli.GlobalSolution, "eval_discrete", step, value)
        assert main(["compare", "--t-max=20", "--stride=7"]) == 3
        name = "z_naive" if column == "naive" else "z_renorm_continuum"
        assert capsys.readouterr().err == f"numerical failure: {name} is not finite at n={step}\n"

    @staticmethod
    def _count_stages(monkeypatch):
        """Count the pipeline's calls of the flow, lam_p^n and each model column."""
        calls = _count_calls(monkeypatch, cli, "flow_path", "discrete_fundamental",
                             "naive_solution", "assemble_modes")
        return _count_calls(monkeypatch, cli.GlobalSolution, "eval_discrete", calls=calls)

    def test_continuum_failure_stops_its_block_and_every_later_one(self, monkeypatch, tmp_path,
                                                                   capsys):
        # 97-step blocks: n=250 is in the third, whose discrete column is not
        # formed, and no later block is
        monkeypatch.setattr(oracle, "_GUARD_BLOCK", 97)
        self._spoil(monkeypatch, cli.GlobalSolution, "eval_discrete", 250, np.nan)
        calls = self._count_stages(monkeypatch)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--t-max=20", f"--output-path={out}"]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: z_renorm_continuum is not finite at n=250\n")
        # the flow runs on through all 21 blocks, where a later overflow would win
        assert calls == {"flow_path": 21, "discrete_fundamental": 3, "naive_solution": 3,
                         "eval_discrete": 3, "assemble_modes": 2}
        assert not out.exists()

    @pytest.mark.parametrize(
        "spoils, column, step",
        [
            ((("discrete", 250), ("continuum", 1500)), "z_renorm_discrete", 250),
            ((("continuum", 250), ("discrete", 1500)), "z_renorm_continuum", 250),
            ((("discrete", 250), ("naive", 1500)), "z_renorm_discrete", 250),
            ((("naive", 291), ("discrete", 290)), "z_renorm_discrete", 290),
            # within one block the columns are checked in the order they are formed
            ((("discrete", 200), ("continuum", 260), ("naive", 280)), "z_naive", 280),
            ((("discrete", 200), ("continuum", 260)), "z_renorm_continuum", 260),
        ],
        ids=["discrete-then-continuum", "continuum-then-discrete", "discrete-then-naive",
             "discrete-in-the-block-before-naive", "naive-first-in-one-block",
             "continuum-before-discrete-in-one-block"],
    )
    def test_the_first_failing_block_wins(self, monkeypatch, tmp_path, capsys, spoils, column,
                                          step):
        # 97-step blocks at stride 1: the failing block is the last one formed
        monkeypatch.setattr(oracle, "_GUARD_BLOCK", 97)
        for which, at in spoils:
            if which == "naive":
                self._spoil(monkeypatch, cli, "naive_solution", at, np.inf)
            elif which == "continuum":
                self._spoil(monkeypatch, cli.GlobalSolution, "eval_discrete", at, np.nan)
            else:
                self._spoil(monkeypatch, cli, "assemble_modes", at, -np.inf)
        calls = self._count_stages(monkeypatch)
        out = tmp_path / "cmp.json"
        assert main(["compare", "--t-max=20", "--output-format=json",
                     f"--output-path={out}"]) == 3
        assert capsys.readouterr().err == f"numerical failure: {column} is not finite at n={step}\n"
        assert calls["naive_solution"] == step // 97 + 1
        assert calls["discrete_fundamental"] == step // 97 + 1
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("place", [96, 97, 285])
    def test_discrete_failure_names_its_written_row(self, monkeypatch, tmp_path, capsys, value,
                                                    place):
        # the discrete column is assembled at the 286 rows of stride 7 alone,
        # in blocks of 97 rows, so the value goes to the row at `place`,
        # step 7 * place
        monkeypatch.setattr(oracle, "_GUARD_BLOCK", 97)
        self._spoil(monkeypatch, cli, "assemble_modes", place, value)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--t-max=20", "--stride=7", f"--output-path={out}"]) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: z_renorm_discrete is not finite at n={7 * place}\n")
        assert not out.exists()

    def test_first_order_record_is_derived_once_per_pipeline(self, monkeypatch, tmp_path):
        # one particular_solution per record: one for compare (the bridge,
        # the flow and every block read it), one per sweep row, one for
        # simulate's bridge
        from renormdiff import perturbation

        calls = []
        original = perturbation.particular_solution

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(perturbation, "particular_solution", counted)
        monkeypatch.setattr(oracle, "_GUARD_BLOCK", 97)
        columns, _ = collected(ExperimentConfig(t_max=20.0))
        assert len(columns["n"]) == 2001 and len(calls) == 1
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--param=eps", "--values=0.005,0.01,0.02", "--t-max=20",
                     f"--output-path={out}"]) == 0
        assert len(calls) == 1 + 3
        assert main(["simulate", "--t-max=20", f"--output-path={out}"]) == 0
        assert len(calls) == 1 + 3 + 1


_PEAK_CASES = {
    "cubic-stride-1": ["--dt=0.004", "--t-max=400"],
    "vdp-stride-10": ["--kind=vdp", "--dt=0.002", "--t-max=200", "--a0-re=0.3", "--a0-im=0.01",
                      "--stride=10", "--output-format=json"],
    "cubic-1e6-steps": ["--dt=0.004", "--t-max=4000"],
    "vdp-1e6-steps": ["--kind=vdp", "--dt=0.002", "--t-max=2000", "--a0-re=0.3", "--a0-im=0.01",
                      "--stride=10", "--output-format=json"],
}


@pytest.fixture(scope="module")
def compare_peaks(tmp_path_factory):
    """The traced peak of a whole compare written to a file, and its steps,
    per _PEAK_CASES entry, each run once (a 1e6-step run takes 10-15 s
    traced)."""
    peaks = {}

    def peak(name):
        if name not in peaks:
            out = tmp_path_factory.mktemp("peak") / "cmp"
            argv = ["compare", "--eps=0.01", "--a0-re=0.5", "--a0-im=5e-4", *_PEAK_CASES[name],
                    f"--output-path={out}"]
            steps = cli._steps(cli._resolve_config(cli.build_parser().parse_args(argv)))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--t-max=1"]) == 0  # imports and tables are not counted
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    traced = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            stride = int(next((a[9:] for a in argv if a.startswith("--stride=")), 1))
            with open(out, "rb") as fh:
                lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
            assert lines > len(range(0, steps + 1, stride))
            out.unlink()
            peaks[name] = traced, steps
        return peaks[name]

    return peak


class TestComparePeakMemory:
    """A whole compare written to a file holds one guard block of the oracle,
    the flow, the model columns and the errors, and the writer's chunk: its
    traced peak does not grow with the step count.  Only the oracle's
    crossing times (one per period) and a few sums outlive a block."""

    @pytest.mark.parametrize(
        "name, steps, bound",
        [
            # the parent of the streamed compare peaked at 93.1 and 40.3 at
            # 1e5 steps and at 38.8 at 1e6 (stride 10); the streamed one at
            # 37.9, 34.9 and 25.0; this one at 14.7, 11.7 and 1.47 (stride
            # 1), each bound about 10% above
            ("cubic-stride-1", 100_000, 16.0),
            ("vdp-stride-10", 100_000, 13.0),
            ("cubic-1e6-steps", 1_000_000, 1.6),
        ],
        ids=["cubic-stride-1", "vdp-stride-10", "cubic-1e6-steps"],
    )
    def test_peak_bytes_per_step(self, compare_peaks, name, steps, bound):
        peak, ran = compare_peaks(name)
        assert ran == steps
        assert peak / steps <= bound

    @pytest.mark.parametrize("small, large", [("cubic-stride-1", "cubic-1e6-steps"),
                                              ("vdp-stride-10", "vdp-1e6-steps")],
                             ids=["cubic-stride-1", "vdp-json-stride-10"])
    def test_peak_does_not_grow_with_the_steps(self, compare_peaks, small, large):
        # 1.005 and 0.996 measured; the parent's grew about tenfold
        (peak_small, steps_small), (peak_large, steps_large) = map(compare_peaks, (small, large))
        assert steps_large == 10 * steps_small == 1_000_000
        assert peak_large <= 1.1 * peak_small


class TestSweepRowsMatchAlone:
    """A row of a sweep has the summary of its pipeline run on its own."""

    @pytest.mark.parametrize(
        "kind, param, values",
        [("cubic", "eps", (0.0, 0.005, 0.02)), ("vdp", "eps", (0.01, 0.03)),
         ("cubic", "a0_re", (0.3, 0.5)), ("vdp", "a0_re", (0.3, 1.5)),
         ("cubic", "dt", (0.02, 0.01)), ("vdp", "dt", (0.02, 0.01))],
    )
    def test_summaries_are_bitwise_equal(self, tmp_path, kind, param, values):
        cfg = ExperimentConfig(kind=kind, t_max=30.0, eps=0.02, a0_re=0.4, a0_im=0.15)
        out = tmp_path / "sweep.json"
        argv = ["sweep", f"--param={param}", "--values=" + ",".join(map(repr, values)),
                f"--kind={kind}", "--t-max=30", "--eps=0.02", "--a0-re=0.4", "--a0-im=0.15",
                "--output-format=json", f"--output-path={out}"]
        assert main(argv) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [row["value"] for row in rows] == list(values)
        for row, value in zip(rows, values, strict=True):
            alone = run_compare_pipeline(dataclasses.replace(cfg, **{param: value}))
            for key, want in alone.items():
                assert repr(row[key]) == repr(want), (value, key)


def _validated(cfg):
    from renormdiff.cli import _validate

    return _validate(cfg)
