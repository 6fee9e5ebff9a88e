#!/usr/bin/env python3
"""Build the benchmark from source, then run it with the given arguments.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload amoeba-day --seed 1 --seconds 40 --trace 0

Everything the build writes (compiled packages, the binary, temporary
files) goes under .bench_build/ at the root of the repository. The
benchmark's own output, the last line of which is its JSON report, is
passed through unchanged, and so is its exit code.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        TMPDIR=tmp,
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env)
    except OSError as err:
        print(f"perfbench: cannot run go: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
