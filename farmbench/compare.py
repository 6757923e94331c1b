#!/usr/bin/env python3
"""Compares two sets of farm benchmark results, metric by metric.

    python3 farmbench/compare.py BASE CHANGE

BASE and CHANGE are result files or directories of them (run.py writes one
per run under .bench_build/farmbench/results/).  Results are grouped by
workload, size and trace mode; each metric's median, quartile spread and
change of medians are printed.  Refuses (exit 3) when any two results carry
different machine fingerprints: figures from different CPUs, core counts,
compilers, flags or event-queue defaults are not comparable.  The code
identity (git SHA, source digest) is expected to differ and is shown only.
"""
import json
import statistics
import sys
from pathlib import Path


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def spread(values):
    """Quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def group(records):
    groups = {}
    for r in records:
        key = (r["workload"], r["size"], r["trace"])
        for name, metric in r["result"]["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(
                metric["value"])
    return groups


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[1]), load(argv[2])
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in base + change}
    if len(prints) != 1:
        print("compare: refusing, the results come from different machine "
              "fingerprints:", file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 3
    for label, records in (("base", base), ("change", change)):
        codes = {json.dumps(r["code"], sort_keys=True) for r in records}
        print(f"{label}: {len(records)} results, code {', '.join(codes)}")
    base_groups, change_groups = group(base), group(change)
    for key in sorted(base_groups.keys() & change_groups.keys()):
        print(f"\n{key[0]} ({key[1]}, trace {key[2]})")
        for name in sorted(base_groups[key].keys() & change_groups[key].keys()):
            b, c = base_groups[key][name], change_groups[key][name]
            mb, mc = statistics.median(b), statistics.median(c)
            delta = (mc - mb) / mb if mb else 0.0
            print(f"  {name:40s} {mb:14.6g} -> {mc:14.6g}  {delta:+8.2%}  "
                  f"(spread {spread(b):.2%} / {spread(c):.2%}, "
                  f"n={len(b)}/{len(c)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
