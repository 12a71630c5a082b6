#!/usr/bin/env python3
"""Builds and runs Layra's benchmark (see perfbench/README.md).

Usage, from the repository root:

  python3 perfbench/run.py --workload batch-suites|batch-large|serve-jit \\
      --seed N --seconds S --trace 0|1 [--smoke]

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library, the shipped `layra-serve` and `layra-perfbench` from
the sources in this checkout.  It builds into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); after the first build a run only checks
that the build is current.  Build output goes to stderr, so the last line
of standard output is the benchmark's JSON result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-suites", "batch-large", "serve-jit")
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the benchmark package; False on error."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and short phases (smoke test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # The benchmark measures the program in this checkout; without its
    # sources there is nothing to build.
    for needed in ("src/driver/BatchDriver.h", "examples/layra_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        fail("build failed")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    # Relative paths keep the server's Unix socket path short.
    cmd = [os.path.join(build_dir, "layra-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.relpath(build_dir, ROOT),
           "--work-dir", os.path.relpath(work_dir, ROOT)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    # Own process group, so a timeout also stops the server it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
