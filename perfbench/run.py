#!/usr/bin/env python3
"""Build perfbench from this checkout and run one workload.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The binary is configured and built
(Release) under .bench_build/perfbench on first use; later runs only
re-check that build. Every argument is passed to the binary. Its last
stdout line is the result JSON, whose metric names are checked against
BENCHMARK.json. Build output goes to stderr so that stays the last line.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no armbar sources next to perfbench/; run from a checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    build()
    args = sys.argv[1:]
    proc = subprocess.run([os.path.join(BUILD, "perfbench")] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):  # --help, or no result
        return proc.returncode
    traced = "--trace" in args and args[args.index("--trace") + 1] == "1"
    got = set(json.loads(lines[-1])["metrics"])
    want = expected_metrics(traced)
    if got != want:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(want - got), sorted(got - want)), file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
