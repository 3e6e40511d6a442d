#!/usr/bin/env python3
"""Per-experiment digests of the simulated metrics a --json report carries.

    python3 scripts/metrics_digests.py REPORT [PIN]

REPORT is a consolidated armbar-bench --json report. Each experiment's
counters (count.*, stall_cycles.*) and the count, sum, min and max of each
of its histograms are hashed into one digest; host-side numbers (wall_ms,
cache hits, percentiles derived from the buckets) stay out. Without PIN the
digests are printed as JSON; with PIN (bench/baselines/METRICS_DIGESTS.json)
they must equal its "digests" object exactly, or the exit status is 1.
"""
import hashlib
import json
import sys

COUNTER_PREFIXES = ("count.", "stall_cycles.")
HISTOGRAM_FIELDS = ("count", "sum", "min", "max")


def digests(doc):
    rows = {}
    for key, v in doc["metrics"].items():
        exp, _, name = key.rpartition("/")
        if name.startswith(COUNTER_PREFIXES):
            rows.setdefault(exp, []).append([name, int(v)])
    for key, h in doc["histograms"].items():
        exp, _, name = key.rpartition("/")
        rows.setdefault(exp, []).append(
            [name, [int(h[f]) for f in HISTOGRAM_FIELDS]])
    return {exp: hashlib.sha256(json.dumps(sorted(r)).encode()).hexdigest()[:16]
            for exp, r in sorted(rows.items())}


def main():
    if len(sys.argv) not in (2, 3):
        print("usage: metrics_digests.py REPORT [PIN]", file=sys.stderr)
        return 2
    got = digests(json.load(open(sys.argv[1])))
    if len(sys.argv) == 2:
        print(json.dumps(got, indent=1))
        return 0
    pin = json.load(open(sys.argv[2]))["digests"]
    bad = sorted(e for e in set(pin) | set(got) if got.get(e) != pin.get(e))
    if bad:
        print(f"metrics digests diverged from the pin: {bad}", file=sys.stderr)
        return 1
    print(f"metrics pin OK ({len(pin)} experiments' counters and histograms "
          f"match)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
