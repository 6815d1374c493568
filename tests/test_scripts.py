"""The experiment scripts under scripts/ still run against the package."""

import difflib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DIGESTS = Path(__file__).resolve().parent / "data" / "output_digests.txt"


@pytest.mark.parametrize(
    "argv",
    [["vdp_limit_cycle.py", "--ratio", "2"], ["mickens_vs_plain.py"], ["output_digests.py"]],
    ids=lambda argv: argv[0],
)
def test_script_runs(package_env, argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=package_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_digests_of_a_copy_at_another_path(package_env, tmp_path):
    # --src runs the matrix on the package under another src/; its path is
    # masked in stderr, so a copy gives the bytes of the checkout's own run
    src = SCRIPTS.parent / "src"
    copy = tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    runs = [
        subprocess.run(
            [sys.executable, str(SCRIPTS / "output_digests.py"), *extra],
            capture_output=True, text=True, env=package_env, timeout=120,
        )
        for extra in ([], ["--src", str(copy)])
    ]
    assert [proc.returncode for proc in runs] == [0, 0], runs[1].stderr
    assert runs[1].stdout == runs[0].stdout


def test_digests_match_the_committed_file(package_env):
    # The CLI's output bytes over the script's matrix; the header line names
    # the numpy, Python and platform of each side and is not compared.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_digests.py")],
        capture_output=True, text=True, env=package_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    want_header, *want = DIGESTS.read_text().splitlines()
    got_header, *got = proc.stdout.splitlines()
    moved = list(difflib.unified_diff(want, got, "committed", "now", n=0, lineterm=""))
    assert not moved, "\n".join([f"committed: {want_header}", f"now:       {got_header}", *moved])
