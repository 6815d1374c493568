"""The experiment scripts under scripts/ still run against the package."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
