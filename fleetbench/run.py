#!/usr/bin/env python3
"""Build and run the fleet-replay benchmark.

Run from the root of a checkout:

    python3 fleetbench/run.py --workload week-steady --seed 1 --seconds 10 --trace 0

Builds fleetbench (a Go module beside this file that imports the
repository's packages through a `replace` directive) into .bench_build/,
with the Go build cache there too, then runs it with the given arguments.
Its standard output passes through; the last line is the JSON result.
Exits non-zero, printing no result, if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(".bench_build")
BINARY = os.path.join(BUILD, "fleetbench", "fleetbench")


def build():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    # go build only relinks when a source changed, so a warm rebuild is cheap.
    subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                   stdout=sys.stderr, check=True, timeout=840)


def main():
    try:
        build()
    except (OSError, subprocess.SubprocessError) as err:
        print(f"fleetbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        return subprocess.run([BINARY] + sys.argv[1:], timeout=175).returncode
    except (OSError, subprocess.SubprocessError) as err:
        print(f"fleetbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
