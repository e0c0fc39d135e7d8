#!/usr/bin/env python3
"""Build and run the Rumba benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-inproc --seed 1 --seconds 10 --trace 0

Builds the benchmark crate in release mode (into ``$CARGO_TARGET_DIR``,
default ``.bench_build``), then runs it. The trained-model cache lives in
``.perfbench-cache`` at the repository root unless ``RUMBA_CACHE_DIR`` is
set. The last line of standard output is the result object; the line
before it is the run record. Exits non-zero, without a result, when the
build fails, and non-zero when an output check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-inproc", "serve-tcp", "offline", "session-churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the benchmarked sources, so a record names the code it
    measured even where no git metadata is available."""
    digest = hashlib.sha256()
    for top in ("crates", os.path.join("perfbench", "src")):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def pin_to_one_cpu():
    """Keeps the measured process on the lowest CPU it may use: a lockstep
    request then hands off between threads on one core instead of waiting
    for a wake-up on a core a neighbouring VM may be using."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = os.environ.copy()
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.abspath(target)
    env.setdefault("RUMBA_CACHE_DIR", os.path.join(ROOT, ".perfbench-cache"))
    # A fixed mmap threshold (glibc's default starting value): glibc
    # otherwise raises it as large blocks are freed, so the peak RSS would
    # depend on how worker threads interleaved their allocations.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"

    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "rumba-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--commit", commit(),
        "--source-digest", source_digest(),
    ]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S, check=False,
            # The traced run measures the default thread count's fan-out,
            # so it keeps every CPU.
            preexec_fn=pin_to_one_cpu if args.trace == 0 else None,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
