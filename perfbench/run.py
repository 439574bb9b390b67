#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload seccomm --seed 1 --seconds 10 --trace 0

The Go benchmark in this directory is built from source into
.bench_build/ (build cache included, so nothing is written outside the
checkout), then run with the given arguments. Its standard output is
passed through; the last line is the JSON result. Workloads: seccomm,
video, pipeline, rebind, or all.
"""

import os
import subprocess
import sys

# A run must end within 180 s, and the first run in a checkout (a cold
# build) within 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfbench")
    home = os.path.join(root, ".bench_build", "home")
    tmp = os.path.join(root, ".bench_build", "tmp")
    for d in (out, home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(root, ".bench_build", "gocache"),
        "GOPATH": os.path.join(root, ".bench_build", "gopath"),
        "GOMODCACHE": os.path.join(root, ".bench_build", "gopath", "pkg", "mod"),
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "TMPDIR": tmp,
        "GOTMPDIR": tmp,
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
