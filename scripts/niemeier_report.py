#!/usr/bin/env python3
"""Print the rank-24 catalog with exact counts, build the associative
subalgebra for every root-lattice entry with the charges of each
component's chain, and summarize both table checks."""

import time

from griess.niemeier import catalog, lemma_4_2_subalgebra
from griess.ratio import q_str
from griess.verify import run_target

print(f"{'name':10s} {'k':>2} {'h':>3} {'count':>24}  mass")
for e in catalog():
    print(f"{e.name:10s} {e.k:2d} {e.coxeter or 0:3d} {e.count:24d}  "
          f"{q_str(e.mass)}")

print("\nassociative subalgebras:")
for e in catalog():
    if e.is_leech:
        continue
    t0 = time.perf_counter()
    rep = lemma_4_2_subalgebra(e)
    print(f"  {e.name:8s} dimension {rep.checks['dimension']:3d} = 24+{e.k:<2d}"
          f"  associative={rep.checks['associative']}"
          f"  ({time.perf_counter() - t0:.1f}s)")
    charges = iter(rep.charges)
    for comp in e.components:
        block = ", ".join(q_str(next(charges)) for _ in range(comp.rank + 1))
        print(f"    {comp}: {block}")

for target in ("table1", "table2"):
    [rep] = run_target(target)
    n_ok = sum(1 for _, ok, _ in rep.clauses if ok)
    print(f"\n{rep.target}: {n_ok}/{len(rep.clauses)} clauses pass "
          f"-> {'PASS' if rep.passed else 'FAIL'}")
