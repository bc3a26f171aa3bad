#!/usr/bin/env python3
"""Builds the long-run benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

The build goes to $CARGO_TARGET_DIR (default: .bench_build under the current
directory) and runs offline. With --trace 1 the spans of the traced episode
are written to <target dir>/perfbench-traces/<workload>-seed<n>.jsonl. The
last line of standard output is the benchmark's JSON result; build output
goes to standard error. Exits non-zero, without a result, when the build or
any output check fails.
"""

import os
import subprocess
import sys


def flag_value(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--locked",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if flag_value(args, "--trace") == "1" and "--trace-out" not in args:
        name = "{}-seed{}.jsonl".format(
            flag_value(args, "--workload"), flag_value(args, "--seed")
        )
        args += ["--trace-out", os.path.join(target, "perfbench-traces", name)]
    exe = os.path.join(target, "release", "cwf-perfbench")
    # Keep freed heap memory in the process instead of returning it to the
    # kernel: in a virtual machine, faulting returned pages back in made
    # the same run's timings vary by tens of percent. Ignored off glibc.
    env["GLIBC_TUNABLES"] = ":".join(
        [
            "glibc.malloc.trim_threshold=1073741824",
            "glibc.malloc.mmap_threshold=33554432",
            "glibc.malloc.top_pad=67108864",
        ]
    )
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
