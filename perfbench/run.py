#!/usr/bin/env python3
"""Build the perfbench command from source and run one benchmark pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv-stable --seed 1 --seconds 15 --trace 0

Every argument is passed to the Go program unchanged. The build and all
scratch files stay under the checkout's build directory ($CARGO_TARGET_DIR,
default .bench_build); the Go build cache lives there too.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT = 170


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir) if not os.path.isabs(build_dir) else build_dir
    os.makedirs(build_dir, exist_ok=True)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Keep the toolchain's caches, temporary files and settings inside the
    # checkout, and never reach for the network.
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOTELEMETRY": "off",
        "GOPROXY": "off",
    })
    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    work = os.path.join(build_dir, "perfbench-work")
    proc = subprocess.Popen([binary, "-work", work] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
