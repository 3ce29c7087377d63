#!/usr/bin/env python3
"""Build and run one workload of the verifier benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (the shared dune cache
is turned off, so the build writes only under _build/), then runs it
with the given arguments plus the host's core count and the commit.
The last line of standard output is the result object; README.md in
this directory describes the workloads and metrics.
"""

import hashlib
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not installed")


def commit():
    """The git commit, or a digest of lib/ when the tree is not a repository."""
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha1()
    for root, dirs, files in os.walk("lib"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project or lib/ is missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(dune() + ["build", "--root", ".", "./perfbench/main.exe"],
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    nproc = len(os.sched_getaffinity(0))
    run = subprocess.run([EXE] + sys.argv[1:]
                         + ["--host-nproc", str(nproc), "--host-commit", commit()])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
