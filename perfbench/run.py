#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, relay its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 25 --trace 0

Builds `perfbench/perfbench.exe` and the `commlat` CLI (the serve child)
with dune, then runs the benchmark.  Its last line of standard output is
the JSON result; the exit status is the benchmark's (nonzero on any failed
output check, a failed build, or a run over its time limit).
"""

import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
TARGETS = ["./perfbench/perfbench.exe", "./bin/commlat_cli.exe"]


def main():
    root = os.getcwd()
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    # the shared dune cache would write outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", root, *TARGETS],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    server = os.path.join("_build", "default", "bin", "commlat_cli.exe")
    # its own process group, so stopping it takes the serve child too
    proc = subprocess.Popen(
        [exe, *sys.argv[1:], "--server", server], start_new_session=True
    )

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, on_signal)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
