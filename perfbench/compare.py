#!/usr/bin/env python3
"""Compare two sets of benchmark records, refusing mismatched fingerprints.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Records are the files run.py keeps under .bench_build/results/. Every record
must share one fingerprint (CPU model, nproc, build type, thread count,
workload, run length, trace mode); otherwise the comparison is refused with
the differing fields named and exit code 2. For each metric the medians of
the two sides and the relative change are printed, with the base side's
quartile spread when it has enough records.
"""

import argparse
import json
import statistics
import sys

import stats


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base = [load(p) for p in args.base]
    new = [load(p) for p in args.new]

    reference = base[0]["fingerprint"]
    for path, record in zip(args.base + args.new, base + new):
        differing = stats.fingerprint_mismatch(reference, record["fingerprint"])
        if differing:
            detail = ", ".join(f"{f}: {reference.get(f)!r} vs {record['fingerprint'].get(f)!r}"
                               for f in differing)
            print(f"compare: refusing: fingerprint mismatch in {path} ({detail})", file=sys.stderr)
            return 2

    print(f"{'metric':40} {'base':>14} {'new':>14} {'change':>9} {'base IQR':>9}")
    for name, first in base[0]["result"]["metrics"].items():
        a = [r["result"]["metrics"][name]["value"] for r in base]
        b = [r["result"]["metrics"][name]["value"] for r in new]
        ma, mb = statistics.median(a), statistics.median(b)
        change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        spread = f"{stats.quartile_spread(a):.1%}" if len(a) >= 2 and ma else "n/a"
        print(f"{name:40} {ma:14.6g} {mb:14.6g} {change:>9} {spread:>9}  {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
