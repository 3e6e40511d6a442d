#!/usr/bin/env python3
"""Run every workload over several seeds and report how steady each
end-to-end metric is.

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--out FILE]

For each workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread: the
interquartile distance as a share of the median. A spread above a third of
the metric's bound in BENCHMARK.json is flagged; setup_s is only reported.
Run from the root of a checkout; --out writes every value as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s seed %d failed with exit code %d" % (workload, seed,
                                                          proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for w in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            res = run(w, args.first_seed + i, spec["run_seconds"])
            if not res["correct"] or res["failed"]:
                sys.exit("%s seed %d: outputs incorrect" % (w, args.first_seed + i))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d done" % (w, args.first_seed + i), file=sys.stderr)
        report[w] = {}
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            report[w][name] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "values": xs}
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  > bound/3"
            print("%-16s %-13s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%%s"
                  % (w, name, med, q1, q3, 100 * spread, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
