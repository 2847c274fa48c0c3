#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload potrf-real --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the simulator from src/)
into .bench_build/ at the repository root, then runs the driver with the
given arguments. Build output goes to stderr; the driver's stdout passes
through, so its last line is the result JSON. Spans of the run are written
to .bench_build/spans/. Exits non-zero if the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")


def build():
    # Compiler temporaries stay inside the build tree as well.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--parallel", jobs],
                   stdout=sys.stderr, env=env, check=True)


def spans_path(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    name = "{}-seed{}-trace{}.json".format(opts.get("--workload", "unknown"),
                                           opts.get("--seed", "x"), opts.get("--trace", "x"))
    os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
    return os.path.join(BUILD, "spans", name)


def main():
    argv = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: {}".format(e), file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([DRIVER] + argv + ["--spans", spans_path(argv)]).returncode


if __name__ == "__main__":
    sys.exit(main())
