#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload paper_sweep --runs 10 [--seed-base 1] [--sets 2]

Runs run.py --runs times on one workload, each with another --seed, and
prints each metric's median and its spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound in BENCHMARK.json.  A spread above a third of
the bound is flagged.  With --sets N the same seeds run N times, and each
later set's medians are compared with the first set's: a median worse by
more than the bound is flagged.  Appends every run's result line to --log
when given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--log", type=Path)
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    first = None
    for n in range(args.sets):
        print("set %d" % (n + 1), flush=True)
        medians = run_set(args, bench, bounds)
        if first is None:
            first = medians
            continue
        for name, median in medians.items():
            worse = (median - first[name]) / first[name] * (1 if lower[name] else -1)
            flag = "" if worse <= bounds[name] else "  <-- worse than set 1 by more than the bound"
            print("%-14s set %d median worse than set 1 by %+.4f  bound %.2f%s"
                  % (name, n + 1, worse, bounds[name], flag))
    return 0


def run_set(args, bench, bounds):
    """One run per seed; prints and returns each metric's median."""
    values = {name: [] for name in bounds}
    for i in range(args.runs):
        seed = args.seed_base + i
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                             check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if args.log:
            with open(args.log, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        if not result["correct"]:
            print("seed %d: incorrect output (%d failed)" % (seed, result["failed"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % (n, v[-1]) for n, v in values.items())),
              flush=True)
    for name, vals in values.items():
        s = benchlib.spread(vals)
        flag = "" if s <= bounds[name] / 3 else "  <-- above a third of the bound"
        print("%-14s median %-12.6g spread %.4f  bound %.2f%s"
              % (name, statistics.median(vals), s, bounds[name], flag))
    return {name: statistics.median(vals) for name, vals in values.items()}


if __name__ == "__main__":
    sys.exit(main())
