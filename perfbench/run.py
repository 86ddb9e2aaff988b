#!/usr/bin/env python3
"""Build the benchmark driver and the oduel binary, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The driver's last stdout line is the JSON result.  Everything it builds
or writes stays inside the checkout: _build/ (dune, with its shared cache
off) and perfbench/out/ (trace files, and the compiler's temporary files).
Exits non-zero without a result when the build fails, e.g. outside a full
checkout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))
DRIVER = os.path.join("_build", "default", HERE, "driver.exe")
ODUEL = os.path.join("_build", "default", "bin", "oduel.exe")


def main():
    tmp = os.path.abspath(os.path.join(HERE, "out", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./" + HERE + "/driver.exe", "./bin/oduel.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, TMPDIR=tmp),
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    argv = [DRIVER, "--oduel", ODUEL, "--dir", HERE] + sys.argv[1:]
    return subprocess.run(argv).returncode


if __name__ == "__main__":
    sys.exit(main())
