#!/usr/bin/env python3
"""Build the LOOM benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <serve-online|churn> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) that depends on
the repository's crates by path. It is built in release mode, offline, into
$CARGO_TARGET_DIR (default perfbench/target). Build output goes to standard
error, so the last line of standard output is the benchmark's result object.
The exit code is the benchmark's: 0 when every output check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# The benchmark must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def rustc_version():
    try:
        out = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def commit():
    # Stop git from walking above the checkout: outside a git checkout the
    # commit is unknown.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(ROOT, target, "release", "loom-perfbench")
    env = dict(os.environ, LOOM_BENCH_RUSTC=rustc_version(), LOOM_BENCH_COMMIT=commit())
    sys.stdout.flush()
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
