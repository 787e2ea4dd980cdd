#!/usr/bin/env python3
"""Build the end-to-end serving benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload read-warm|churn --seed N \
        --seconds S --trace 0|1

Builds perfbench/main.exe with dune, then runs it with the same
arguments. Every IQ_* knob is cleared so the engine runs at its
defaults. The last line of standard output is the result object
printed by main.exe (see perfbench/README.md). The exit code is
non-zero when the build fails, an answer is wrong, or the run does not
finish in time.
"""

import os
import signal
import subprocess
import sys
import time

# Time limits for the whole invocation, build included: a run that finds
# main.exe up to date, and a run that has to build it first.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 880

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, env, timeout):
    """Run cmd to completion; kill it and wait for it after a timeout."""
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    # A terminated wrapper still stops and reaps its child (see run()).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a full checkout")
    env = {k: v for k, v in os.environ.items() if not k.startswith("IQ_")}
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    t0 = time.monotonic()
    build = ["dune", "build", "--root", ".", "--display", "quiet",
             "perfbench/main.exe"]
    if run(build, env, BUILD_LIMIT_S) != 0:
        fail("build failed")
    built = time.monotonic() - t0
    limit = BUILD_LIMIT_S if built > 10 else RUN_LIMIT_S
    sys.stdout.flush()
    sys.exit(run([EXE] + sys.argv[1:], env, limit - built))


if __name__ == "__main__":
    main()
