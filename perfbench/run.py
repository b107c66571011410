#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload paper-study|live-swap \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. Builds `topple-experiments` (the daemon
the serving workloads drive) and the benchmark binary into
`$CARGO_TARGET_DIR` (default `.bench_build`), clears the `TOPPLE_*`
variables so the program runs at its defaults, and runs the benchmark. The
last line of stdout is the benchmark's JSON result; build output goes to
stderr. Exits non-zero without a result if anything fails, including when
the checkout holds no program to build.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "experiments"))):
        fail("run from the root of a toppling checkout (no Cargo.toml or crates/experiments here)")
    env = {k: v for k, v in os.environ.items()
           if k not in ("TOPPLE_WORKERS", "TOPPLE_EPOCH", "TOPPLE_GEN_EPOCH")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "topple-experiments"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr so the result stays the last stdout line.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "topple-perfbench"), *sys.argv[1:],
           "--daemon", os.path.join(release, "topple-experiments"),
           "--work", os.path.join(ROOT, ".bench_work")]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
