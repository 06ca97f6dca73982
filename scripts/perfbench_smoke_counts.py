#!/usr/bin/env python3
"""Gate the perfbench smoke run on its exact work counts.

Usage (from the root of a checkout, after the smoke loop has written one
perfbench result per workload to <results-dir>/<workload>.json):

    python3 scripts/perfbench_smoke_counts.py \\
        bench/baselines/perfbench_smoke.json perfbench_out
    python3 scripts/perfbench_smoke_counts.py --record \\
        bench/baselines/perfbench_smoke.json perfbench_out

report_io, query_pages and index_pages are functions of the seeded
workload, not of machine speed, so at a fixed --seed and --seconds they
must equal the baseline exactly. Any difference is printed and fails the
check (exit 1). --record rewrites the baseline from the results instead;
a re-recorded baseline must be explained in CHANGES.md.
"""

import argparse
import json
import os
import sys

COUNTS = ("report_io", "query_pages", "index_pages")
WORKLOADS = ("fleet_paged", "bimodal_fanout", "burst_tiered")
RECORDED_WITH = ("python3 perfbench/run.py --workload <w> --seed 1 "
                 "--seconds 2 --trace 0")


def read_counts(results_dir):
    counts = {}
    for name in WORKLOADS:
        with open(os.path.join(results_dir, f"{name}.json")) as f:
            metrics = json.load(f)["metrics"]
        counts[name] = {key: metrics[key]["value"] for key in COUNTS}
    return counts


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", action="store_true")
    parser.add_argument("baseline")
    parser.add_argument("results_dir")
    args = parser.parse_args()

    fresh = read_counts(args.results_dir)
    if args.record:
        with open(args.baseline, "w") as f:
            json.dump({"recorded_with": RECORDED_WITH, "workloads": fresh}, f,
                      indent=2)
            f.write("\n")
        print(f"recorded {args.baseline}")
        return 0

    with open(args.baseline) as f:
        want = json.load(f)["workloads"]
    diffs = 0
    for name in WORKLOADS:
        for key in COUNTS:
            got, expected = fresh[name][key], want[name][key]
            if got != expected:
                print(f"{name}.{key}: {got!r} != baseline {expected!r}")
                diffs += 1
    if diffs:
        print(f"{diffs} work count(s) differ from {args.baseline}")
        return 1
    print(f"perfbench smoke work counts match {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
