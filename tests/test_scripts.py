"""The experiment scripts under scripts/ still run against the package."""

import difflib
import importlib.util
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DIGESTS = Path(__file__).resolve().parent / "data" / "output_digests.txt"


def _run(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture(scope="session")
def default_digests(package_env):
    """One run of output_digests.py over its default matrix, read by every
    check of that run."""
    return _run(["output_digests.py"], package_env)


@pytest.mark.parametrize(
    "argv",
    [["vdp_limit_cycle.py", "--ratio", "2"], ["mickens_vs_plain.py"], ["output_digests.py"]],
    ids=lambda argv: argv[0],
)
def test_script_runs(request, package_env, argv):
    if argv == ["output_digests.py"]:
        proc = request.getfixturevalue("default_digests")
    else:
        proc = _run(argv, package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_digests_of_a_copy_at_another_path(package_env, default_digests, tmp_path):
    # --src runs the matrix on the package under another src/; its path is
    # masked in stderr, so a copy gives the bytes of the checkout's own run
    src = SCRIPTS.parent / "src"
    copy = tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    copied = _run(["output_digests.py", "--src", str(copy)], package_env)
    assert [default_digests.returncode, copied.returncode] == [0, 0], copied.stderr
    assert copied.stdout == default_digests.stdout


def test_digests_match_the_committed_file(default_digests):
    # The CLI's output bytes over the script's matrix; the header line names
    # the numpy, Python and platform of each side and is not compared.
    proc = default_digests
    assert proc.returncode == 0, proc.stderr
    want_header, *want = DIGESTS.read_text().splitlines()
    got_header, *got = proc.stdout.splitlines()
    moved = list(difflib.unified_diff(want, got, "committed", "now", n=0, lineterm=""))
    assert not moved, "\n".join([f"committed: {want_header}", f"now:       {got_header}", *moved])


@pytest.fixture
def output_digests(monkeypatch):
    """output_digests.py loaded as a module; loading it fixes COLUMNS, which
    monkeypatch restores afterwards."""
    monkeypatch.delenv("COLUMNS", raising=False)
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPTS / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_mask_a_warnings_location_and_quoted_line(output_digests):
    # one warning raised from checkouts at two paths, from a call written at
    # two lines in two layouts: the stderr digest sees one text
    after = "error: z(3) is not finite\n"
    masked = [
        output_digests.masked_stderr(
            warnings.formatwarning("eps is large", UserWarning,
                                   f"{src}/renormdiff/cli.py", lineno, call) + after,
            Path(src))
        for src, lineno, call in [("/a/src", 120, "return SchemeParams("),
                                  ("/b/src", 97, "return SchemeParams(dt=dt, eps=eps)")]
    ]
    assert masked == ["SRC/renormdiff/cli.py:LINE: UserWarning: eps is large\n" + after] * 2


def test_digests_keep_the_line_after_an_unquoted_warning(output_digests):
    # Python quotes no source line when it cannot read the file; the message
    # that follows the warning is then not mistaken for one
    text = warnings.formatwarning("eps is large", UserWarning, "/a/src/renormdiff/cli.py", 120, "")
    masked = output_digests.masked_stderr(text + "error: z(3) is not finite\n", Path("/a/src"))
    assert masked == ("SRC/renormdiff/cli.py:LINE: UserWarning: eps is large\n"
                      "error: z(3) is not finite\n")
