"""Run every verification suite and print one report line each.

Usage: python scripts/run_all_suites.py [--seed S] [--full]

--full uses the acceptance-sized sample counts instead of the quick defaults,
which takes about 2.5 s on a shared 2-vCPU Xeon machine (2.28-2.71 s wall
time over three runs, Python 3.11.7).

Every suite runs and gets its report, whatever fails inside an earlier one:
run_suite turns a failure into a report.  Each report goes to stdout as one
JSON line.  For each failing suite, stderr also gets the command that
replays it exactly, with the sample count it ran:
fig8plan verify --suite NAME --seed S --n N.
"""

import argparse
import json
import sys

from fig8plan.verify import SUITE_NAMES, run_suite

FULL_SIZES = {
    "collision": 10_000,
    "partition": 100_000,
    "retraction": 10_000,
    "continuity": 16,
    "termination": 10_000,
    "roundtrip": 1000,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()

    failures = 0
    for name in SUITE_NAMES:
        n = FULL_SIZES[name] if args.full else None
        report = run_suite(name, seed=args.seed, n=n)
        print(json.dumps(report.to_json()))
        if not report.passed:
            failures += 1
            replay = f"fig8plan verify --suite {name} --seed {report.seed} --n {report.n}"
            print(f"{name} failed; replay with: {replay}", file=sys.stderr)
    if failures:
        print(f"{failures} suite(s) failed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
