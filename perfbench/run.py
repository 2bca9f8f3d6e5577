#!/usr/bin/env python3
"""Build and run duet's end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload hw-steady --seed 1 --seconds 30 --trace 0

The Go program in this directory is built from source into the build
directory ($CARGO_TARGET_DIR when set, else .bench_build), with the Go build
cache, module cache and temporary files kept there too: a run writes only
inside the checkout, and outside it reads only the Go toolchain. The last
line of standard output is the result object; see README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return None
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOMODCACHE=os.path.join(build_dir, "gomodcache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOFLAGS="-mod=mod",
    )
    binary = os.path.join(build_dir, "perfbench")
    done = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return binary


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)
    if binary is None:
        return 1
    args = [binary, "-out", os.path.join(ROOT, ".bench_out")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
