#!/usr/bin/env python3
"""Builds hbbench from source and runs one benchmark workload.

Run from the repository root:

    python3 hbbench/run.py --workload sf-small --seed 1 --seconds 15 --trace 0

The first call configures and builds hbnet plus the benchmark in Release
under $CARGO_TARGET_DIR (default .bench_build) in the repository root;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. With --trace 1 the
spans are also written as Chrome trace JSON under <build dir>/traces/.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
ALL_WORKLOADS = 5  # workload_names() in workloads.cpp


def run_timeout_s(workload, seconds):
    """Timed calls, set-up, final checks and traced probes, with margin."""
    count = ALL_WORKLOADS if workload == "all" else 1
    return count * (2 * seconds + 60) + 30


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    """Configures once, then builds incrementally. Returns the executable."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "hbbench",
                  "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return build_dir / "hbbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--break", dest="broken", choices=("kappa", "conservation"),
                    help="inject a wrong expectation to prove the checks fail")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("hbbench: no hbnet sources next to hbbench/; nothing to build",
              file=sys.stderr)
        return 2

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "hbbench"
    try:
        exe = build(build_dir)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"hbbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.broken:
        cmd += ["--break", args.broken]
    if args.trace:
        trace_dir = build_root / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    timeout = run_timeout_s(args.workload, args.seconds)
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"hbbench: run exceeded {timeout} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
