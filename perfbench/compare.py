"""Compare benchmark records written by run.py --out.

    python3 perfbench/compare.py --base a1.json a2.json --new b1.json b2.json

Prints, per metric, the median and quartiles of each side and the change
of the medians.  Refuses (exit 2) to compare records whose arithmetic
backend, workload, trace mode or input size differ: their numbers measure
different things.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MATCH = ("backend", "workload", "trace", "smoke")


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    records = {side: [json.loads(Path(f).read_text())
                      for f in getattr(args, side)]
               for side in ("base", "new")}
    first = records["base"][0]["env"]
    for rec in records["base"] + records["new"]:
        for key in MATCH:
            if rec["env"][key] != first[key]:
                print(f"error: cannot compare {key} {first[key]!r} with "
                      f"{rec['env'][key]!r}", file=sys.stderr)
                return 2
    print(f"{first['workload']} on {first['backend']}: "
          f"{len(records['base'])} base runs, {len(records['new'])} new runs")
    for name, m in records["base"][0]["result"]["metrics"].items():
        sides = [summary([r["result"]["metrics"][name]["value"]
                          for r in records[side]])
                 for side in ("base", "new")]
        (b1, bm, b3), (n1, nm, n3) = sides
        change = (nm - bm) / bm if bm else float("nan")
        print(f"{name:34s} {bm:12.6g} [{b1:.6g}, {b3:.6g}]  "
              f"{nm:12.6g} [{n1:.6g}, {n3:.6g}]  {change:+.2%} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
