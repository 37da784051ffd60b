#!/usr/bin/env python3
"""Build and run the fsdl serving benchmark.

    python3 perfbench/run.py --workload warm_pool --seed 1 --seconds 24 \
        --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark binary (Release) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs rebuild incrementally. The binary's report goes to
stdout, and its last line is the JSON result. --self-test runs every
workload on a reduced grid and asserts zero failures, zero answer
violations and a traced coverage of at least 0.95; it gates on no absolute
number.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["warm_pool", "closure_churn", "router_k2"]
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
MIN_COVERAGE = 0.95


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    top = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / top / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/CMakeLists.txt next to perfbench/: "
             "run from a full checkout")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "fsdl_perfbench"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        # Only this checkout's own repository counts, not an enclosing one.
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "build_type": BUILD_TYPE,
            "commit": commit, "source_sha256": source_digest(), "seed": seed}


def run_bench(binary, args):
    """Run the benchmark binary; return (report lines, parsed result)."""
    try:
        done = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result line")
    return lines, result


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            lines, result = run_bench(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "4",
                "--trace", trace, "--cols", "100", "--setups", "1"])
            problems = []
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"failed={result['failed']}")
                problems += [line for line in lines
                             if line.startswith("first violation")]
            if trace == "1":
                coverage = result["metrics"]["trace.coverage"]["value"]
                if coverage < MIN_COVERAGE:
                    problems.append(f"coverage {coverage:.4f} < {MIN_COVERAGE}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"self-test {workload} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    print("stamp: " + json.dumps(stamp(args.seed)))
    lines, _ = run_bench(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace])
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
