#!/usr/bin/env python3
"""Run one stepfdr benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  The
workload's inputs come from --seed only.  Ops repeat for --seconds (at least
three per run), every output is checked, and the last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones.  Lines before it repeat each metric by name and unit, with sample
counts and the names the analysis uses (analyze_wall_s, reps_per_s, ...).

Exits 2 without a result line when the checkout holds no stepfdr sources.
A program that is there but fails (an import error included) gives a result
line with failed operations and "correct": false.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import bench


def _describe(values: list[float]) -> str:
    text = f"median {statistics.median(values):.6g} of {len(values)}"
    tail = bench.tail_percentile(values)
    if tail:
        text += f", p{tail[0]:g} {tail[1]:.6g}"
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        outcome = bench.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except bench.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tally = outcome.tally
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} ops, {tally.failed} failed, "
          f"failed_ratio {tally.failed / max(tally.attempted, 1):.6g} ratio")
    for problem in outcome.notes:
        print(f"  FAILED: {problem}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (values, unit) in outcome.samples.items():
        if values:
            print(f"  {name} ({unit}): {_describe(values)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
