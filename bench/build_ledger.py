#!/usr/bin/env python3
"""Record BENCH_build.json: the E18 sweep of two bench_construction builds.

    python3 bench/build_ledger.py PARENT_BENCH CHANGE_BENCH > BENCH_build.json

PARENT_BENCH and CHANGE_BENCH are bench_construction binaries of the parent
commit and of the change (build the parent's with this change's
bench/bench_construction.cpp, so both print the same columns). Each is run
REPEATS times, interleaved (parent, change, parent, ...), with
`--threads 1,2,4 --grid 4x500`; every cell gets the median, min,
interquartile range (inclusive quartiles) and every run.
"""

import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

GRID = "4x500"
THREADS = [1, 2, 4]
REPEATS = 5
METRICS = ["build_s", "decode_us_per_label", "warm_s"]


def sweep(binary):
    out = subprocess.run(
        [binary, "--threads", ",".join(map(str, THREADS)), "--grid", GRID],
        capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def cell(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(statistics.median(runs), 4), "min": min(runs),
            "iqr": round(q3 - q1, 4), "runs": runs}


def build_type(binary):
    for parent in Path(binary).resolve().parents:
        cache = parent / "CMakeCache.txt"
        if cache.is_file():
            for line in cache.read_text().splitlines():
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1] or "(default)"
    return "unknown"


def cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = {"parent": sys.argv[1], "change": sys.argv[2]}
    rows = {side: [] for side in sides}
    for _ in range(REPEATS):
        for side, binary in sides.items():
            rows[side].append(sweep(binary))
    commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                            capture_output=True, text=True,
                            check=False).stdout.strip()
    ledger = {
        "bench": "bench_construction --threads (E18)",
        "recorded": datetime.date.today().isoformat(),
        "machine": {"cpu": cpu_model(), "cores": os.cpu_count()},
        "build_type": {side: build_type(b) for side, b in sides.items()},
        "commit": commit,
        "repeats": REPEATS,
        "protocol": f"{REPEATS} sweeps of each binary, interleaved; "
                    "cells give median, min, IQR and every run",
        "workload": {"graph": f"grid {GRID}", "params": "compact eps=1 c=2",
                     "n": rows["change"][0][0]["n"],
                     "total_bits": rows["change"][0][0]["total_bits"]},
    }
    for side in sides:
        ledger[side] = [
            {"threads": t,
             **{m: cell([run[k][m] for run in rows[side]]) for m in METRICS},
             "identical_to_serial": all(run[k]["identical_to_serial"]
                                        for run in rows[side])}
            for k, t in enumerate(THREADS)]
    bits = {run[k]["total_bits"] for side in sides for run in rows[side]
            for k in range(len(THREADS))}
    ledger["same_total_bits_both_sides"] = len(bits) == 1
    json.dump(ledger, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
