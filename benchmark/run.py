#!/usr/bin/env python3
"""Build and run the socket-level D-PRBG benchmark for one workload.

    python3 benchmark/run.py --workload draw-m64 --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository. The first call
configures and builds benchmark/ (which builds the library from the
repository root) under the build directory: $CARGO_TARGET_DIR if set,
else .bench_build, relative to the checkout root. Later calls rebuild
incrementally. The last line of stdout is the benchmark's JSON result;
build output goes to stderr.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    cmake_dir = build_dir / "cmake"
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (cmake_dir / "Makefile").exists():
            subprocess.run(
                ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, env=env)
        subprocess.run(
            ["cmake", "--build", str(cmake_dir), "--target", "dprbg_bench",
             "-j", jobs],
            check=True, stdout=sys.stderr, env=env)
    return cmake_dir / "dprbg_bench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append("--trace")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
