#!/usr/bin/env python3
"""Build perftrack's benchmark harness and trackd from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch-wrf --seed 1 --seconds 25 --trace 0

Every build product, Go cache and scratch file stays under .bench_build in
the checkout. The harness prints its result as the last line of stdout.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    out = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "-mod=readonly -buildvcs=false",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for d in ("tmp", "config", "perfbench"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    builds = [
        (here, ["go", "build", "-o", os.path.join(out, "perfbench"), "."]),
        (root, ["go", "build", "-o", os.path.join(out, "trackd"), "./cmd/trackd"]),
    ]
    for cwd, cmd in builds:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    harness = [os.path.join(out, "perfbench"), "-root", root, "-bin", out]
    return subprocess.run(harness + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
