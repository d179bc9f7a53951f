#!/usr/bin/env python3
"""Build the quantum-tier benchmark from source and run one workload.

    python3 qbench/run.py --workload travel --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It builds qbench/qbench.exe with
dune, runs it with the same arguments, and passes its output and exit
status through: the last line of standard output is the JSON result.
When the checkout cannot be built it exits non-zero without a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "qbench", "qbench.exe")


def main():
    if not os.path.isfile("dune-project"):
        print("qbench: run from the root of a checkout (no dune-project here)", file=sys.stderr)
        return 2
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "qbench/qbench.exe"], stdout=sys.stderr, env=env
    )
    if build.returncode != 0:
        print("qbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
