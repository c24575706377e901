"""Compare two sets of saved benchmark records (``run.py --out``).

Usage, from the repository root::

    python3 perfbench/compare.py --base base/*.json --head head/*.json

For each workload and end-to-end metric it prints each side's median,
quartiles and sample count, and the head's change against the base
median. A change worse than the metric's ``bound`` in ``BENCHMARK.json``
is a regression (exit 1). Records from different kernel backends, trace
modes or reference inputs are refused (exit 2): numbers from the numba
backend are reported, never compared with numpy-only ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    parser.add_argument("--manifest", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as handle:
        bounds = {metric["name"]: metric
                  for metric in json.load(handle)["end_to_end"]}
    sides = {"base": load(args.base), "head": load(args.head)}
    every = sides["base"] + sides["head"]
    backends = {record["provenance"]["backend"] for record in every}
    if len(backends) > 1:
        print(f"refusing to compare records from backends "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    if len({record["trace"] for record in every}) > 1:
        print("refusing to compare traced with untraced records",
              file=sys.stderr)
        return 2
    sizes = defaultdict(set)
    for record in every:
        prov = record["provenance"]
        sizes[prov["workload"]].add((prov["nrefs"], prov["scale"]))
    mixed = sorted(name for name, seen in sizes.items() if len(seen) > 1)
    if mixed:
        print(f"refusing to compare different nrefs/scale on {mixed}",
              file=sys.stderr)
        return 2
    values = defaultdict(lambda: defaultdict(list))
    for side, records in sides.items():
        for record in records:
            workload = record["provenance"]["workload"]
            if not record["correct"]:
                print(f"warning: {side} {workload} record is not correct "
                      f"({record['failed']}/{record['attempted']} failed)")
            for name, metric in record["metrics"].items():
                values[(workload, name)][side].append(metric["value"])
    regressions = 0
    print(f"{'workload':<15} {'metric':<12} {'base median [q1, q3] n':>34} "
          f"{'head median [q1, q3] n':>34} {'change':>8}")
    for (workload, name), by_side in sorted(values.items()):
        if not by_side["base"] or not by_side["head"]:
            continue
        row = []
        for side in ("base", "head"):
            q1, median, q3 = quartiles(by_side[side])
            row.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] "
                       f"{len(by_side[side])}")
        base = statistics.median(by_side["base"])
        change = statistics.median(by_side["head"]) / base - 1 if base else 0
        verdict = ""
        spec = bounds.get(name)
        if spec is not None:
            worse = change if spec["better"] == "lower" else -change
            if worse > spec["bound"]:
                verdict = f"  REGRESSION (bound {spec['bound']:.0%})"
                regressions += 1
        print(f"{workload:<15} {name:<12} {row[0]:>34} {row[1]:>34} "
              f"{change:>+8.1%}{verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
