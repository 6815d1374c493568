#!/usr/bin/env python3
"""Digests of the CLI's output over a fixed matrix of configurations.

Runs ``renormdiff.cli.main`` in-process, from the ``src/`` directory of the
checkout this script sits in or from the one ``--src`` names, for every
configuration below and prints, after one ``#`` header line naming the numpy,
Python and platform it ran on, one line per output: ``<sha256>  <exit code>
<argv>`` for the output file and again, tagged ``[stdout]`` and
``[stderr]``, for what the run wrote to stdout and to stderr.  The output
path in the printed argv is the placeholder ``OUT.csv``/``OUT.json``, the
path of ``src/`` in stderr is ``SRC``, the line number a warning names in a
package file is ``LINE`` and the source line Python quotes under it is
dropped, so checkouts at different paths, and code moved or reformatted
within a file, agree (the CLI itself prints a warning as one line,
``warning: ...``, in every run that raises it).  Ten runs end in a numerical
failure (exit 3), and their stderr digests pin the failure message and the
step of each guard: the oracle's divergence guard at ``z(1)``, in
``simulate`` and in ``compare``, at ``z(0)`` in a ``compare``, and late, at
``z(133)`` in a Van der Pol ``simulate``, where the loop runs on through inf
and nan to the end of its guard block before the guard names the first step,
and at ``z(4534)``, in the second guard block of a Van der Pol ``simulate``
whose guard also tests the implicit coefficient; the Van der Pol step's
vanishing implicit coefficient at ``n=1``; and the amplitude flow's overflow
guard at step 3 (Van der Pol) and at step 13 (cubic).  Four more fail after
a ``compare`` has streamed its first guard block of rows: the cubic flow
passes its guard at step 5423, and the Van der Pol oracle, which runs a
guard block at a time, at ``z(4534)``, each in the second block.  To a file,
each run leaves none; to stdout, the digest pins the head and the rows of
the first block, with no summary.  One more is a sweep whose rows fail in
different guard blocks: row 2's oracle passes its guard at ``z(412)``, in
the first block, and row 1's flow passes its guard at step 4, named only
once its oracle has run to the last step, so the sweep names row 1's
failure, the first in row order.  The oracle's failure is the one named,
as a failure of the oracle at any step wins over a flow overflow at any
step, which wins over the first non-finite model column.  The ``--help``
runs and the runs refused with exit 2 pin the text of the command-line
boundary.  argparse wraps its usage lines to the terminal width, so the
script fixes ``COLUMNS`` before anything is parsed.

A change that must not alter a byte is checked by running this script's
matrix on the parent commit's package and on the changed one and comparing::

    python3 scripts/output_digests.py --src PARENT_CHECKOUT/src > parent.txt
    python3 scripts/output_digests.py > change.txt
    diff parent.txt change.txt

``tests/data/output_digests.txt`` holds this script's output, and a test
compares a fresh run with it.  A change that moves output on purpose rewrites
it with ``python3 scripts/output_digests.py > tests/data/output_digests.txt``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

# argparse reads the width when it formats; fixed, the digests do not depend
# on the terminal the script runs in.
os.environ["COLUMNS"] = "80"

STDOUT = "-"  # marks a run that writes its table to stdout

# Short runs with a complex initial amplitude; the long compare spans many
# writer chunks at stride 1.
BASE = ["--dt=0.01", "--t-max=60", "--eps=0.02", "--a0-re=0.4", "--a0-im=0.15"]
LONG = ["--dt=0.004", "--t-max=200", "--eps=0.01", "--a0-re=0.5", "--a0-im=-3e-05"]
# The cubic oracle passes the divergence guard at z(1) (at z(3) from
# zeroth-order initial data), and at eps = 1e150 at z(0); the Van der Pol
# step's implicit coefficient vanishes at n=1.
DIVERGING = ["--kind=cubic", "--dt=1.5", "--t-max=30", "--eps=0.4", "--a0-re=50"]
DIVERGING_AT_0 = ["--kind=cubic", "--eps=1e150", "--dt=0.01", "--t-max=1"]
SINGULAR = ["--kind=vdp", "--dt=0.1", "--t-max=30", "--eps=10", "--a0-re=1e-7"]
# Runs that fail late.  The Van der Pol oracle passes the divergence guard at
# z(133) (gain eps dt = 0.15, no singular test) and runs on through nan to
# the end of that guard block once z*z overflows.  The cubic oracle passed
# its guard at z(582) from zeroth-order initial data; from the first-order
# bridge it runs all 2000 steps, and the amplitude flow passes its overflow
# guard at step 13.
LATE_CUBIC = ["--kind=cubic", "--dt=1", "--t-max=2000", "--eps=0.4", "--a0-re=0.638"]
LATE_VDP = ["--kind=vdp", "--dt=1.5", "--t-max=15000", "--eps=0.1", "--a0-re=0.3"]
# At the Van der Pol gain eps dt = 0.55 the guard also tests the implicit
# coefficient: 4500 steps cross a guard block's end, and 5000 pass the
# divergence guard at z(4534), in the second block.
GAIN_055 = ["--kind=vdp", "--dt=0.1", "--eps=5.5", "--a0-re=0.4", "--a0-im=0.15"]
# The Van der Pol amplitude flow from a0 = 10 at eps = 0.4 and dt = 1 passes
# its overflow guard at step 3.
FLOW_OVERFLOW = ["--kind=vdp", "--eps=0.4", "--dt=1", "--a0-re=10", "--t-max=50"]
# Many guard blocks of the compare pipeline (4096 steps) at a stride: 1e5 Van der
# Pol steps written every 10th as JSON, and LONG every 7th, where each block
# boundary falls inside a stride.
BLOCKS_VDP = ["--kind=vdp", "--dt=0.002", "--t-max=200", "--eps=0.01", "--a0-re=0.3",
              "--a0-im=0.01", "--stride=10"]
# The cubic flow from a0 = 0.4 at eps = 0.4 and dt = 0.1 passes its overflow
# guard at step 5423, in the second guard block, while the oracle stays finite.
LATE_FLOW = ["--kind=cubic", "--dt=0.1", "--t-max=600", "--eps=0.4", "--a0-re=0.4"]
# GAIN_055's oracle in a compare: it passes its divergence guard at z(4534),
# in the second guard block, after a first block in which nothing fails.
LATE_ORACLE = [*GAIN_055, "--t-max=500"]
# A sweep whose rows fail in different guard blocks: at eps = 0.05 the Van
# der Pol flow from a0 = 10 passes its overflow guard at step 4, at eps = 0.4
# the oracle passes its divergence guard at z(412).
ROWS_FAIL_APART = ["--param=eps", "--values=0.05,0.4", "--kind=vdp", "--dt=1", "--a0-re=10",
                   "--t-max=5000"]


def matrix() -> list[tuple[list[str], str]]:
    """(argv without the output flags, output format or STDOUT) for every run."""
    runs = []
    for command in ("compare", "simulate"):
        for kind in ("cubic", "vdp"):
            for fmt in ("csv", "json"):
                for stride in ("1", "7"):
                    runs.append(([command, f"--kind={kind}", f"--stride={stride}", *BASE], fmt))
    for fmt in ("csv", "json"):
        runs.append((["compare", "--kind=cubic", "--scheme=mickens", *BASE], fmt))
        runs.append((["compare", "--kind=cubic", *LONG], fmt))
        for param, values in (("eps", "0.005,0.01,0.02"), ("dt", "0.02,0.01,0.005"),
                              ("a0_re", "0.3,0.4,0.5")):
            for kind in ("cubic", "vdp"):
                runs.append((["sweep", f"--param={param}", f"--values={values}",
                              f"--kind={kind}", *BASE], fmt))
    runs.append((["compare", "--kind=cubic", "--stride=7", *BASE], STDOUT))
    runs.append((["compare", "--kind=vdp", "--output-format=json", *BASE], STDOUT))
    runs.append((["simulate", "--kind=cubic", *BASE], STDOUT))
    runs.append((["sweep", "--param=eps", "--values=0.01,0.02", "--t-max=3", "--dt=0.01"], STDOUT))
    runs.append((["simulate", *DIVERGING], "csv"))
    runs.append((["compare", *DIVERGING], "csv"))
    runs.append((["compare", *DIVERGING_AT_0], "csv"))
    runs.append((["simulate", *SINGULAR], "csv"))
    runs.append((["compare", *FLOW_OVERFLOW], "csv"))
    runs.append((["compare", *LATE_CUBIC], "csv"))
    runs.append((["simulate", *LATE_VDP], "csv"))
    for t_max in ("450", "500"):
        runs.append((["simulate", *GAIN_055, f"--t-max={t_max}"], "csv"))
    # At exact roots and dt = 1, lam_p^3 = -1 is real, so the first-order sum
    # merges its lam_p^3 and lam_m^3 terms onto one base.
    for kind in ("cubic", "vdp"):
        runs.append((["compare", f"--kind={kind}", "--dt=1", *BASE[1:]], "csv"))
    for a0_re in ("1.0", "1.5"):  # Van der Pol from the limit cycle and from above it
        runs.append((["compare", "--kind=vdp", *BASE[:3], f"--a0-re={a0_re}"], "csv"))
    # The Van der Pol envelope needs |a0|^2 alone: from Re(a0) = 0, and from
    # Im/Re = 1e155, whose square overflows though |a0|^2 = 1e-10.
    for a0 in (["--a0-re=0", "--a0-im=0.3"], ["--a0-re=1e-160", "--a0-im=1e-5"]):
        runs.append((["compare", "--kind=vdp", *BASE[:3], *a0], "csv"))
    # The cubic flow's turn x = Im(r dt) |A|^2 at its edges: 0 from a0 = 0, and
    # the smallest subnormal from |a0| = 1e-160, whose |a0|^2 underflows; each
    # turn 1 + i x then leaves A as it is.
    for a0 in (["--a0-re=0", "--a0-im=0"], ["--a0-re=1e-160", "--a0-im=1e-161"]):
        runs.append((["compare", "--kind=cubic", *BASE[:3], *a0], "csv"))
    # A tiny amplitude writes its trajectories in exponent form (below 1e-5) and
    # its errors below 1e-11, which the writer formats one cell at a time.
    for fmt in ("csv", "json"):
        runs.append((["compare", "--kind=cubic", "--stride=1", *BASE[:3], "--a0-re=1e-7",
                      "--a0-im=1e-9"], fmt))
    runs.append((["simulate", "--kind=vdp", *LONG], "csv"))
    # The boundary's text: each subcommand's help, and a choice (the
    # first-order roots among them), a range, a sign and an unknown flag
    # refused with exit 2.
    for command in ("simulate", "compare", "sweep"):
        runs.append(([command, "--help"], STDOUT))
    runs.append((["simulate", "--kind=quadratic", *BASE], "csv"))
    runs.append((["compare", "--root-convention=bogus", *BASE], "csv"))
    runs.append((["compare", "--root-convention=first-order", *BASE], "csv"))
    runs.append((["compare", "--stride=0", *BASE], "csv"))
    runs.append((["compare", "--kind=cubic", *BASE, "--eps=-1"], "csv"))
    # |a0| = 1e8: |a0|^2 is past 2^53, where the Van der Pol envelope no
    # longer starts at a0.
    runs.append((["compare", "--kind=vdp", *BASE, "--a0-im=1e8"], "csv"))
    runs.append((["compare", "--kind=vdp", "--vdp-halving", *BASE], "csv"))
    # Configs wrong twice, refused for their first fault in the one check
    # order (fields, scheme, step count) by every subcommand: dt = 3 is out of
    # the scheme's range and gives no two steps; dt = 1e-6 breaks the step cap
    # and is too small to resolve the third harmonic.
    for wrong in (["--dt=3", "--t-max=1"], ["--dt=1e-6", "--t-max=200"]):
        for command in (["simulate"], ["compare"], ["sweep", "--param=eps", "--values=0.01"]):
            runs.append(([*command, *wrong], "csv"))
    # A sweep checks its rows one at a time, so it is refused for its first
    # row's first fault: row 1's dt = 1e-5 is too small to resolve the third
    # harmonic, though row 2's dt = 2.5 is outside the scheme's range.
    runs.append((["sweep", "--param=dt", "--values=1e-5,2.5", "--t-max=1e-3"], "csv"))
    runs.append((["compare", *BLOCKS_VDP], "json"))
    runs.append((["compare", "--kind=cubic", "--stride=7", *LONG], "csv"))
    runs.append((["compare", *LATE_FLOW], "csv"))
    runs.append((["compare", *LATE_FLOW], STDOUT))
    runs.append((["compare", *LATE_ORACLE], "csv"))
    runs.append((["compare", *LATE_ORACLE], STDOUT))
    runs.append((["sweep", *ROWS_FAIL_APART], "csv"))
    return runs


_SRC_LINE = re.compile(r"(SRC/renormdiff/\w+\.py:)\d+:(.*\n)(?:  .*\n)?")


def masked_stderr(text: str, src: Path) -> str:
    """`text` with the path of `src` as ``SRC``, a warning's line number in a
    package file as ``LINE`` and the source line quoted under it dropped."""
    return _SRC_LINE.sub(r"\1LINE:\2", text.replace(str(src), "SRC"))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(cli, src: Path, argv: list[str], fmt: str, tmp: Path) -> list[str]:
    """Run one configuration through `cli`, imported from `src`; return its digest lines."""
    flags = [] if fmt == STDOUT else [f"--output-format={fmt}", "--output-path=OUT." + fmt]
    out_path = tmp / ("out." + fmt)
    real = [flag.replace("OUT." + fmt, str(out_path)) for flag in flags]
    captured, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
        code = cli.main(argv + real)
    shown = " ".join(argv + flags)
    lines = []
    if fmt != STDOUT:
        data = out_path.read_bytes() if out_path.exists() else b""
        out_path.unlink(missing_ok=True)
        lines.append(f"{_digest(data)}  {code}  {shown}")
    lines.append(f"{_digest(captured.getvalue().encode())}  {code}  {shown} [stdout]")
    # A warning names its caller's file and line and quotes that line; drop
    # the checkout's location, the line number, which moves whenever code is
    # added above it, and the quoted line, which moves when it is reformatted.
    stderr = masked_stderr(errors.getvalue(), src)
    lines.append(f"{_digest(stderr.encode())}  {code}  {shown} [stderr]")
    return lines


def header() -> str:
    """The versions and platform the digests were made on; a mismatch on
    another host may come from them and not from the program."""
    import numpy

    return (f"# numpy {numpy.__version__}, Python {platform.python_version()}, "
            f"{platform.system()} {platform.machine()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
        help="the src/ directory whose renormdiff package is run "
             "(default: this checkout's)")
    src = parser.parse_args().src.resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("renormdiff.cli")
    if Path(cli.__file__).resolve().parent != src / "renormdiff":
        sys.exit(f"output_digests: imported {cli.__file__}, not the package under {src}")
    print(header())
    with tempfile.TemporaryDirectory() as tmp:
        for argv, fmt in matrix():
            for line in run(cli, src, argv, fmt, Path(tmp)):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
