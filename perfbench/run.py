"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
program's packages through a replace directive pointing at the checkout
root. It is built here into .bench_build/perfbench/, with the Go build
cache and every other Go tool state kept under .bench_build, so nothing
outside the checkout is read or written but the Go toolchain itself.
Every argument is passed on to the benchmark binary; its exit code is
this script's exit code.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")


def main():
    src = os.path.join(ROOT, "perfbench")
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: run from the root of a checkout of the program", file=sys.stderr)
        return 2
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        GOENV="off",
        GOWORK="off",
    )
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=src, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([BINARY] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
