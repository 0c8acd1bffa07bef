#!/usr/bin/env python3
"""Build and run the perfbench benchmark from a checkout of this repository.

    python3 perfbench/run.py --workload ckpt-replay --seed 1 --seconds 10 --trace 0

Builds the Go benchmark in perfbench/ (its own module, which uses the
library at the repository root) into the build directory, then runs it
with the given arguments. The benchmark prints one JSON result line last
on standard output. Everything the build writes stays in the build
directory: $CARGO_TARGET_DIR when set, else .bench_build at the
repository root, each taken relative to the current directory.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    if go is None or not os.path.exists(go):
        sys.exit("perfbench: no go toolchain on PATH")
    home = os.path.join(build_dir, "home")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOMODCACHE=os.path.join(build_dir, "gopath", "pkg", "mod"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build_dir, "perfbench")
    # Build output goes to stderr: stdout carries only the result.
    proc = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ckpt-replay", "paper-stream", "mixed-service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.exists(os.path.join(HERE, "..", "go.mod")):
        sys.exit("perfbench: the library (go.mod at the repository root) is missing")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(HERE, "..", ".bench_build"))
    binary = build(os.path.join(build_dir, "perfbench"))
    proc = subprocess.run([binary, "-workload", args.workload, "-seed", str(args.seed),
                           "-seconds", str(args.seconds), "-trace", str(args.trace)])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
