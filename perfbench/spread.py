#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload table1 --seeds 1-10 [--seconds 30]

Runs perfbench/run.py once per seed, one run at a time, and prints for each
end-to-end metric of BENCHMARK.json the median and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound. Raw results are appended to
perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    log = os.path.join(HERE, "out", "spread-%s.jsonl" % args.workload)
    os.makedirs(os.path.dirname(log), exist_ok=True)
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "result": result}) + "\n")
        if not result["correct"]:
            print("seed %d: incorrect result %s" % (seed, result), file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d done" % seed, file=sys.stderr)
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        print("%-14s median %-12.6g spread %6.3f  bound %.2f" %
              (m["name"], med, (q[2] - q[0]) / med, m["bound"]))


if __name__ == "__main__":
    main()
