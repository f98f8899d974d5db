#!/usr/bin/env python3
"""Build the clusteer benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload sim-ilp --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The executable is built with dune from
the checkout's own sources (perfbench/ links the repo's libraries), so
the checkout must hold the whole repository; anywhere else the build
fails and this script exits 2 without printing a result. All arguments
are passed through to perfbench/main.exe, whose last stdout line is the
JSON result.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found on PATH")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a clusteer checkout",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        dune() + ["build", "--root", ".", "./perfbench/main.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
