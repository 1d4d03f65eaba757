"""Acceptance gate: one test per criterion, one pass/fail line each.

All checks are exact (zero tolerance); three criteria also assert a
wall-clock budget: 1 (10 s), 4 (60 s) and 7 (30 s).  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time

from griess.bplus import verify_theorem_3_1
from griess.exactlin import QMatrix
from griess.niemeier import (F2QuadSpace, brute_force_lagrangians, catalog,
                             lagrangian_extension_count, lemma_4_2_subalgebra,
                             table1_consistency, table2_consistency)
from griess.ratio import Q
from griess.rootalgebra import (coset_chain_decompose, delta, epsilon)

from conftest import (algebra_A, algebra_T, bplus, gram_matrix, phi,
                      phi_kernel_basis, reference, system)

SIMPLE_LIST = ([f"A{l}" for l in range(1, 9)]
               + [f"D{l}" for l in range(4, 9)]
               + ["E6", "E7", "E8", "A24"])


def criterion(n: int, description: str, ok: bool):
    print(f"\nCRITERION {n:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {n} failed: {description}"


def test_criterion_01_delta1_sizes():
    t0 = time.perf_counter()
    ok = True
    for spec in SIMPLE_LIST:
        rs, ref = system(spec), reference(spec)
        h = rs.components[0].coxeter
        ok = ok and all(
            sum(1 for j in range(rs.N) if ref.rel[i][j] == 1) == 2 * h - 4
            for i in range(rs.N))
    elapsed = time.perf_counter() - t0
    criterion(1, f"|Delta_1(alpha)| = 2h-4 on {len(SIMPLE_LIST)} systems "
              f"({elapsed:.1f}s < 10s)", ok and elapsed < 10)


def test_criterion_02_closed_form_identities():
    ok = True
    for spec in SIMPLE_LIST:
        ra = algebra_A(spec)
        ok = ok and delta(ra) == ra.alg.find_identity()
        rt = algebra_T(spec)
        ok = ok and epsilon(rt) == rt.alg.find_identity()
    criterion(2, "delta and epsilon equal the solver identities of "
              "A(Phi) and T(Phi) on the same system list", ok)


def test_criterion_03_central_charges():
    ok = True
    for l in range(1, 25):
        ra = algebra_A(f"A{l}")
        h = l + 1
        d, e = delta(ra), epsilon(ra)
        ok = ok and d.central_charge() == l
        ok = ok and e.central_charge() == Q(l * h, h + 2)
        ok = ok and (d - e).central_charge() == Q(2 * l, l + 3)
    criterion(3, "c(delta) = l, c(epsilon) = lh/(h+2), "
              "c(delta - epsilon) = 2l/(l+3) for A_1..A_24", ok)


def test_criterion_04_chain_decomposition():
    dec2 = coset_chain_decompose(algebra_A("A2"))
    ok = dec2.charges == [Q(1, 2), Q(7, 10), Q(4, 5)]
    t0 = time.perf_counter()
    ra = algebra_A("A24")
    dec = coset_chain_decompose(ra)
    ok = ok and all(dec.checks.values())  # clauses (i)-(iii)
    expected = [1 - Q(6, (i + 2) * (i + 3)) for i in range(1, 25)] + [Q(16, 9)]
    ok = ok and dec.charges == expected
    ok = ok and dec.charges[23] == Q(116, 117)
    ok = ok and ra.alg.is_associative_span(dec.idempotents)
    elapsed = time.perf_counter() - t0
    criterion(4, f"A_2 charges (1/2, 7/10, 4/5); A_24 charges end in "
              f"116/117 and 16/9 with clauses (i)-(iii) and associativity "
              f"({elapsed:.1f}s < 60s)", ok and elapsed < 60)


def test_criterion_05_isometric_surjection():
    ok = True
    for spec in ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "E6"]:
        product_pair, form_pair, rank = verify_theorem_3_1(phi(spec))
        ok = ok and product_pair is None and form_pair is None
        ok = ok and rank == bplus(spec).dim
        bijective = rank == 2 * system(spec).N
        ok = ok and bijective == spec.startswith("A")
    kernel = phi_kernel_basis(phi("D4"))
    radical = gram_matrix(algebra_A("D4").alg).kernel_basis()
    joint_rank = QMatrix(kernel + radical).rank()
    ok = ok and len(kernel) == 2 == len(radical) == joint_rank
    criterion(5, "phi is an exact isometric homomorphism onto B+, "
              "bijective exactly in type A; ker(phi) on D_4 has dimension 2 "
              "and equals the radical", ok)


def test_criterion_06_associative_subalgebras():
    ok = True
    dims = {}
    for e in catalog():
        if e.is_leech or any(c.family != "A" for c in e.components):
            continue
        rep = lemma_4_2_subalgebra(e)
        dims[e.name] = rep.checks["dimension"]
        ok = ok and rep.checks == {"dimension": 24 + e.k, "associative": True}
    ok = ok and dims["A1^24"] == 48 and dims["A2^12"] == 36
    criterion(6, f"associative subalgebras of dimension 24+k inside B+ for "
              f"all {len(dims)} type-A entries (48 for A1^24, 36 for A2^12)",
              ok)


def test_criterion_07_lagrangian_counts():
    t0 = time.perf_counter()
    counts = [brute_force_lagrangians(F2QuadSpace(d)) for d in (2, 4, 6, 8)]
    elapsed = time.perf_counter() - t0
    ok = counts == [2, 6, 30, 270]
    ok = ok and counts == [lagrangian_extension_count(d // 2)
                           for d in (2, 4, 6, 8)]
    criterion(7, f"brute-force Lagrangian counts {counts} match the product "
              f"formula ({elapsed:.1f}s < 30s)", ok and elapsed < 30)


def test_criterion_08_mass_table():
    clauses = table1_consistency()
    criterion(8, "every mass x |Co1| is a positive integer and the 24 "
              "counts sum to the total Lagrangian count",
              all(ok for _, ok, _ in clauses))


def test_criterion_09_double_counting():
    clauses = table2_consistency()
    edges = [(d, ok) for d, ok, _ in clauses if d.startswith("edge ")]
    frac = sum(1 for _, ok in edges if ok) / len(edges)
    anchor = next(ok for d, ok, _ in clauses if d.startswith("anchor"))
    roots_ok = all(ok for d, ok in edges
                   if d.startswith(("edge A_1 ", "edge A_2 ", "edge A_3 ")))
    criterion(9, f"double-counting identity holds on "
              f"{frac:.0%} of {len(edges)} edges (>= 90% required); "
              "anchor and A_1/A_2/A_3 rows pass",
              frac >= 0.9 and anchor and roots_ok)


def test_criterion_10_property_suite():
    rng = random.Random(1729)
    ok = True

    def rand(alg):
        return alg.element({rng.randrange(alg.dim):
                            Q(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in range(4)})

    for alg in (algebra_A("A3").alg, algebra_T("A3").alg, bplus("A3").alg):
        for _ in range(500):
            x, y = rand(alg), rand(alg)
            ok = ok and x * y == y * x
    for spec in ("A2", "D4"):
        alg = bplus(spec).alg
        for _ in range(200):
            a, b, c = rand(alg), rand(alg), rand(alg)
            ok = ok and (a * b).form(c) == a.form(b * c)
    for spec in ("A3", "A1^2"):
        dec = coset_chain_decompose(algebra_A(spec))
        acc = dec.idempotents[0]
        for e in dec.idempotents[1:]:
            acc = acc + e
        ok = ok and acc.central_charge() == sum(dec.charges)
    criterion(10, "500 randomized commutativity checks per algebra, "
              "form invariance on B+, charge additivity across orthogonal "
              "idempotents", ok)
