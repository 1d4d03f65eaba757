#!/usr/bin/env python3
"""Print the rank-24 catalog with exact counts, build the associative
subalgebra for every root-lattice entry with the charges of each
component's chain, and check both tables.

An entry passes if its span is associative, has dimension 24+k, and has
the charges of verify.closed_charges on each component.  Exits 1 if an
entry or a table1/table2 clause fails, 0 otherwise.

    PYTHONPATH=src python scripts/niemeier_report.py
"""

import sys
import time

from griess.niemeier import catalog, lemma_4_2_subalgebra
from griess.ratio import q_str
from griess.verify import closed_charges, run_target

print(f"{'name':10s} {'k':>2} {'h':>3} {'count':>24}  mass")
for e in catalog():
    print(f"{e.name:10s} {e.k:2d} {e.coxeter or 0:3d} {e.count:24d}  "
          f"{q_str(e.mass)}")

failed = []
print("\nassociative subalgebras:")
for e in catalog():
    if e.is_leech:
        continue
    t0 = time.perf_counter()
    rep = lemma_4_2_subalgebra(e)
    dim, assoc = rep.checks["dimension"], rep.checks["associative"]
    lines, start, charges_ok = [], 0, True
    for comp in e.components:
        want = closed_charges(comp)
        block = rep.charges[start:start + len(want)]
        start += len(want)
        line = f"    {comp}: {', '.join(q_str(c) for c in block)}"
        if block != want:
            charges_ok = False
            line += f"  (closed forms: {', '.join(q_str(c) for c in want)})"
        lines.append(line)
    ok = assoc and dim == 24 + e.k and charges_ok and start == len(rep.charges)
    if not ok:
        failed.append(e.name)
    print(f"  {e.name:8s} dimension {dim:3d} (24+k = {24 + e.k:2d})"
          f"  associative={assoc}  {'PASS' if ok else 'FAIL'}"
          f"  ({time.perf_counter() - t0:.1f}s)")
    print("\n".join(lines))

for target in ("table1", "table2"):
    [rep] = run_target(target)
    n_ok = sum(1 for _, ok, _ in rep.clauses if ok)
    print(f"\n{rep.target}: {n_ok}/{len(rep.clauses)} clauses pass "
          f"-> {'PASS' if rep.passed else 'FAIL'}")
    if not rep.passed:
        failed.append(rep.target)

print(f"\noverall: {'FAIL: ' + ', '.join(failed) if failed else 'PASS'}")
sys.exit(1 if failed else 0)
