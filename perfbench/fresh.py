"""Fresh-process probe: set-up time and peak memory of one renormdiff CLI call.

Usage: python3 perfbench/fresh.py ARGV_JSON  (with the checkout's ``src`` on PYTHONPATH)

Times ``import renormdiff.cli`` plus ``build_parser()`` from a fresh
interpreter, then runs the call and prints one JSON line with the set-up
time, the exit code, the call's captured stdout and the process's peak RSS.
Nothing else is imported before the set-up clock stops.
"""

import time

t0 = time.perf_counter()
import renormdiff.cli as cli  # noqa: E402

cli.build_parser()
setup_s = time.perf_counter() - t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def peak_rss_kib() -> int:
    """High-water RSS of this address space.

    Not getrusage's ru_maxrss: Linux carries that across exec, so it can
    report the peak of the parent that started this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


captured = io.StringIO()
with contextlib.redirect_stdout(captured):
    rc = cli.main(json.loads(sys.argv[1]))
print(json.dumps({
    "setup_s": setup_s,
    "rc": rc,
    "stdout": captured.getvalue(),
    "cli_file": cli.__file__,
    "peak_rss_kib": peak_rss_kib(),
}))
