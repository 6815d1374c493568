"""The experiment scripts under scripts/ still run against the package."""

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
