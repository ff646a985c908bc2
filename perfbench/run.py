#!/usr/bin/env python3
"""Build and run the lockstep rekey benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds perfbench/rekeybench.exe with dune and runs it; its last line of
output is the JSON result. With --pin-check in front of the same
arguments the workload runs twice on the same seed and the pinned
counts (keys and bytes per rekey, DEK trace digest) must agree exactly:

    python3 perfbench/run.py --pin-check --workload W --seed N --seconds 1 --trace 0
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "rekeybench.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/rekeybench.exe"]
    code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode
    if code != 0 or not os.path.exists(EXE):
        sys.stderr.write("run.py: building the benchmark failed\n")
        sys.exit(code or 1)


def pinned_line(args):
    out = subprocess.run([EXE] + args, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        sys.exit(out.returncode)
    lines = [l for l in out.stdout.splitlines() if l.startswith("pinned ")]
    return lines[0] if lines else ""


def main():
    args = sys.argv[1:]
    if not os.path.exists(os.path.join("perfbench", "run.py")):
        sys.stderr.write("run.py: run me from the root of the checkout\n")
        sys.exit(2)
    build()
    if args[:1] == ["--pin-check"]:
        a, b = pinned_line(args[1:]), pinned_line(args[1:])
        print(a)
        print(b)
        if not a or a != b:
            sys.stderr.write("run.py: pinned counts differ between two runs of one seed\n")
            sys.exit(1)
        return
    os.execv(EXE, [EXE] + args)


if __name__ == "__main__":
    main()
