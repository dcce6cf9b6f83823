#!/usr/bin/env python3
"""Build and run the simdize benchmark.

    python3 perfbench/run.py --workload {kernels|cold-compile|serve} \
        --seed N --seconds S --trace {0|1}

Run from the root of a source tree. Configures and builds perfbench/ (the
repository's libraries from src/ plus the perfbench executable) with CMake
into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs it.
Its last stdout line is the JSON result; the exit code is 0 only when the
build succeeded and every output was correct.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds perfbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log = os.path.join(build_dir, "perfbench-build.log")
    # The compiler's temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log, "ab") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               env=env) != 0:
                sys.stderr.write("perfbench: build failed (%s); see %s\n"
                                 % (" ".join(cmd), log))
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["kernels", "cold-compile", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", build_dir]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
