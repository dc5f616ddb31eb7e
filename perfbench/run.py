#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload traverse|taskblock|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark binary under .bench_build/ (or $CARGO_TARGET_DIR
when it is set); later runs only rebuild what changed.  Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.  In
traced mode the span dump is written to .bench_build/traces/.

Exits non-zero without printing a result when the library sources are
missing or the build fails.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = Path(target)
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    binary_dir = out / "perfbench"
    # One build at a time per checkout.
    with open(out / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (binary_dir / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(binary_dir), "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", str(binary_dir), "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return binary_dir / "perfbench"


def source_identity() -> dict:
    """The commit (when the checkout is a git repository) and a digest of src/."""
    commit = "unknown"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        commit = r.stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()[:16]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["traverse", "taskblock", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = p.parse_known_args()

    if not (ROOT / "src" / "simd" / "dispatch.hpp").is_file():
        print("perfbench: library sources not found next to perfbench/", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        exe = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.tsv")]
    cmd += extra
    # The measured configuration: the host's own SIMD table and the JIT tier.
    env = {k: v for k, v in os.environ.items() if k not in ("TB_SIMD_ISA", "TB_SPEC_JIT")}
    print(json.dumps({"perfbench_source": source_identity()}), flush=True)
    try:
        proc = subprocess.run(cmd, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
