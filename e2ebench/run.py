#!/usr/bin/env python3
"""Builds and runs the end-to-end routing benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload batch_moment --seed 1 --seconds 20 --trace 0

Builds `ntr-serve` (the repository's server) and the `ntr-e2e` benchmark
in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), then
runs one measurement. The last line of standard output is the result
object; `--trace 1` runs write their spans under `<target>/e2e-trace/`.
Exits non-zero without a result when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo(args, env):
    try:
        done = subprocess.run(
            ["cargo", *args, "--release", "--offline", "--quiet"],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"cargo {args[0]}: {e}")
    if done.returncode != 0:
        fail(f"cargo {' '.join(args)} exited with {done.returncode}")


def main():
    root = os.getcwd()
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cargo(["build", "--manifest-path", os.path.join(root, "Cargo.toml"),
           "-p", "ntr-server", "--bin", "ntr-serve"], env)
    cargo(["build", "--manifest-path", os.path.join(HERE, "Cargo.toml")], env)

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "ntr-e2e"), *sys.argv[1:],
           "--server", os.path.join(release, "ntr-serve"),
           "--trace-dir", os.path.join(target, "e2e-trace")]
    try:
        bench = subprocess.Popen(cmd)
    except OSError as e:
        fail(f"benchmark: {e}")

    # Killed or interrupted: stop the benchmark too, and wait for it.
    def stop(signum, _frame):
        bench.kill()
        bench.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        bench.kill()
        bench.wait()
        fail(f"benchmark: no result within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
