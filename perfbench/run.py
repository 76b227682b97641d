#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later calls only re-check the build. The
binary's metrics are printed as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics; the
line before it records provenance (git sha, source digest, build type,
compiler, nproc, thread widths, seed, FASTGL_KERNEL_ISA).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = (
    "pipeline-mag-fastgl",
    "trainer-products-gcn",
    "serve-products",
    "serve-products-logits",
)
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    """Run a build step, sending its output to stderr; exit on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"{what} failed with exit code {result.returncode}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
              "cmake build")
    return BUILD_DIR / "perfbench"


def cmake_cache(key):
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_digest():
    """SHA-256 over the library and benchmark sources (checkouts need
    not be git repositories, so the sha alone cannot identify them)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def compiler():
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0] if out.stdout else cxx
    except (OSError, subprocess.TimeoutExpired):
        return cxx


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD_DIR / f"trace-{args.workload}-{args.seed}.json")]
    try:
        # run() kills and reaps the binary if it overruns.
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or len(lines) < 2:
        fail(f"benchmark binary exited with code {result.returncode}")
    config = json.loads(lines[-2])
    report = json.loads(lines[-1])

    provenance = {
        **config,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler(),
        "nproc": os.cpu_count(),
        "fastgl_kernel_isa": os.environ.get("FASTGL_KERNEL_ISA"),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
