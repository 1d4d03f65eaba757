#!/usr/bin/env python3
"""Print the rank-24 catalog with exact counts, run `griess niemeier sub`
on every root-lattice entry, which builds its associative subalgebra with
the charges of its chains and judges it by `griess verify lemma4.2`, and
check both tables.  Exits 1 if an entry or a table1/table2 clause fails,
0 otherwise.

    PYTHONPATH=src python scripts/niemeier_report.py
"""

import sys

from griess.cli import run
from griess.niemeier import catalog
from griess.ratio import q_str
from griess.verify import run_target

print(f"{'name':10s} {'k':>2} {'h':>3} {'count':>24}  mass")
for e in catalog():
    print(f"{e.name:10s} {e.k:2d} {e.coxeter or 0:3d} {e.count:24d}  "
          f"{q_str(e.mass)}")

print("\nassociative subalgebras:")
failed = [e.name for e in catalog()
          if not e.is_leech and run(["niemeier", "sub", e.name])]

for target in ("table1", "table2"):
    [rep] = run_target(target)
    n_ok = sum(1 for _, ok, _ in rep.clauses if ok)
    print(f"\n{rep.target}: {n_ok}/{len(rep.clauses)} clauses pass "
          f"-> {'PASS' if rep.passed else 'FAIL'}")
    if not rep.passed:
        failed.append(rep.target)

print(f"\noverall: {'FAIL: ' + ', '.join(failed) if failed else 'PASS'}")
sys.exit(1 if failed else 0)
