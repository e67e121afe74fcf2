#!/usr/bin/env python3
"""Builds the benchmark binary and runs one workload.

    python3 perfbench/run.py --workload <study|deep-traversal|serve-mixed> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. The binary is built with cargo (release,
offline) into $CARGO_TARGET_DIR, or perfbench/target when that is unset;
build output goes to standard error, so the last line of standard output
is the run's JSON result. With --trace 1 the spans of the run are written
to <target>/perfbench-spans/<workload>-seed<N>.jsonl.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def capture(cmd, cwd=None):
    """First line of a command's output, or 'unknown' if it fails."""
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=True)
        return out.stdout.strip().splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return "unknown"


def arg(args, flag):
    """Value following `flag` in `args`, or None."""
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1

    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"])
    env["PERFBENCH_REV"] = capture(["git", "rev-parse", "--short", "HEAD"], cwd=HERE)
    cmd = [os.path.join(target, "release", "perfbench")] + args
    if arg(args, "--trace") == "1":
        name = "%s-seed%s.jsonl" % (arg(args, "--workload"), arg(args, "--seed"))
        cmd += ["--spans-out", os.path.join(target, "perfbench-spans", name)]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
