#!/usr/bin/env python3
"""Build and run one perfbench workload from the repository root.

    python3 perfbench/run.py --workload t12-mis-tree --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe and the serving daemon with dune (the
first run in a fresh checkout compiles the whole library), then runs
the workload in its own process. The last stdout line is the result
JSON; everything the build prints goes to stderr. Exits non-zero
without a result when the sources are missing, the build fails, the
benchmark fails or it overruns its time limit.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["t12-mis-tree", "t15-matching-arb2", "t3-edgecol-tree", "serve-mix"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
DAEMON = os.path.join("_build", "default", "bin", "tree_local_serve.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin")):
        print("perfbench: run from the root of a tree_local checkout", file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    # no shared build cache: the build reads and writes inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code = run_group(
            dune + ["build", "--display", "quiet", "./perfbench/bench.exe", "./bin/tree_local_serve.exe"],
            BUILD_TIMEOUT_S,
            stdout=sys.stderr,
            env=env,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    sys.stdout.flush()
    cmd = [
        BENCH,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", DAEMON,
    ]
    try:
        return run_group(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
