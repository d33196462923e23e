#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shard-hot --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark program (perfbench/main.ml).
`--all` in place of `--workload NAME` runs every workload in turn (exit
code non-zero if any answer was wrong), and `--self-test` runs the
benchmark's own tests and a smoke run of every workload.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGETS = ["./bin/bi.exe", "./perfbench/main.exe", "./perfbench/test_perfbench.exe"]
WORKLOADS = ["shard-hot", "shard-cold", "cluster-mixed"]


def build():
    for need in ("dune-project", "bin/bi.ml", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    # Build output goes to stderr so stdout ends with the result line.
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "--display=quiet"] + TARGETS,
        stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode


def exe(name):
    return os.path.join(BUILD_DIR, "default", "perfbench", name)


def self_test():
    code = subprocess.run([exe("test_perfbench.exe")]).returncode
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            smoke = subprocess.run(
                [exe("main.exe"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", trace, "--smoke"],
                stdout=subprocess.DEVNULL)
            print(f"smoke {workload} trace {trace}: exit {smoke.returncode}")
            code = code or smoke.returncode
    return code


def main():
    code = build()
    if code != 0:
        return code or 1
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test()
    if "--all" in args:
        args.remove("--all")
        for workload in WORKLOADS:
            run = subprocess.run([exe("main.exe"), "--workload", workload] + args)
            code = code or run.returncode
        return code
    # Replace this process, so a signal meant for the benchmark reaches
    # the benchmark program, which stops every program process it started.
    os.execv(exe("main.exe"), [exe("main.exe")] + args)


if __name__ == "__main__":
    sys.exit(main())
