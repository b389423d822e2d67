#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 hbbench/run.py --workload olden-fleet --seed 1 --seconds 15 --trace 0
    python3 hbbench/run.py --selftest

Run from the repository root (or anywhere: paths are taken from this
file's location). The benchmark package in this directory and the
repository's `hbserve` binary are built with `cargo build --release
--offline` into `$CARGO_TARGET_DIR` (default: `.bench_build` at the
repository root); the run's scratch files go to `<target>/hbbench-work`.
The last line of standard output is the run's JSON result; see LAYERS.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("olden-fleet", "paper-grid", "serve-grid")


def build(target):
    """Builds the benchmark and hbserve; returns False on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "hardbound_report", "--bin", "hbserve"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("hbbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", choices=("0", "1"))
    p.add_argument("--selftest", action="store_true",
                   help="check that corrupted goldens and a killed hbserve fail")
    a = p.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("hbbench: no repository around " + HERE + " to build", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    if not build(target):
        return 1
    exe = os.path.join(target, "release", "hbbench")
    common = ["--hbserve", os.path.join(target, "release", "hbserve"),
              "--work", os.path.join(target, "hbbench-work")]
    if a.selftest:
        cmd = [exe, "selftest"] + common
    else:
        cmd = [exe, "run", "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", a.trace] + common
    # The run gets a process group of its own, so that a run that hangs is
    # ended together with every process it started (hbserve, grid passes).
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("hbbench: the run did not finish in time", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
