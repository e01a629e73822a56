#!/usr/bin/env python3
"""Fail when a deterministic work counter in a google-benchmark JSON moved.

Usage:
  check_work_counters.py --scale bench_scale.json --proto bench_proto.json

Wall time is noisy on shared runners and stays advisory (compare_bench.py);
the counters below are exact functions of the code and its fixed inputs, so
any change to one is a behaviour change that must be made on purpose, by
updating this table in the same commit. Exit status is 1 when a counter
differs or a benchmark is missing, 0 otherwise.
"""

import argparse
import json
import sys

# benchmark name -> counter -> exact value
EXPECTED = {
    "scale": {
        # One link fail/restore on a converged 150-router domain: every SPF
        # run incremental, no view rebuilt from the whole LSDB.
        "BM_LinkFlipReconvergence/150": {
            "spf_runs": 302, "spf_incremental_runs": 302, "view_rebuilds": 0,
        },
    },
    "proto": {
        "BM_FloodBatching/batched:0": {"lsas": 12928, "lsus": 12928, "lsacks": 12929},
        "BM_FloodBatching/batched:1": {"lsas": 10932, "lsus": 2356, "lsacks": 1223},
        "BM_RestorationDdSync/60": {"dd_headers": 120, "ls_requests": 2, "sync_lsas": 2},
        "BM_RestorationDdSync/200": {"dd_headers": 400, "ls_requests": 2, "sync_lsas": 2},
    },
}


def check(path, expected):
    runs = {b["name"]: b for b in json.load(open(path, encoding="utf-8"))["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"}
    problems = []
    for name, counters in expected.items():
        if name not in runs:
            problems.append(f"{path}: {name} missing")
            continue
        for counter, want in counters.items():
            got = runs[name].get(counter)
            if got != want:
                problems.append(f"{path}: {name} {counter} = {got}, expected {want}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", required=True)
    parser.add_argument("--proto", required=True)
    args = parser.parse_args()
    problems = check(args.scale, EXPECTED["scale"]) + check(args.proto, EXPECTED["proto"])
    for problem in problems:
        print(f"::error::work counter: {problem}")
    if not problems:
        print("work counters: all as expected")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
