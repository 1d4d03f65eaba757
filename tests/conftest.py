"""Shared cached builders so expensive systems are constructed once, the
reference encoder that turns tables given as rules into table sources, the
basis elements of an algebra and the polar form of a GF(2) space, a
reference root system built from rational coordinates by definition,
dense references by definition: basis forms, the Gram matrix, the matrix of
phi and its kernel, and a level-by-level reference count of GF(2)
Lagrangians, the verdicts of verify's certificate of a chain
decomposition, and scripts/niemeier_report.py run on closed-form images."""

import itertools
import json
import math
import runpy
from functools import lru_cache
from pathlib import Path

import pytest

from griess import verify
from griess.algebra import DecompositionReport, StructureAlgebra
from griess.bplus import PhiMap, build_bplus
from griess.exactlin import QMatrix, SparseSolver, f2_span
from griess.niemeier import catalog_entry
from griess.ratio import Q, ZERO
from griess.rootalgebra import build_A, build_T, default_chains
from griess.rootsys import build, parse_spec
from griess.verify import VerifyReport, certify_chain

REPORT_SCRIPT = (Path(__file__).resolve().parents[1] / "scripts"
                 / "niemeier_report.py")


@lru_cache(maxsize=None)
def system(spec: str):
    return build(spec)


@lru_cache(maxsize=None)
def algebra_A(spec: str):
    return build_A(system(spec))


@lru_cache(maxsize=None)
def algebra_T(spec: str):
    return build_T(system(spec))


@lru_cache(maxsize=None)
def bplus(spec: str):
    return build_bplus(system(spec))


@lru_cache(maxsize=None)
def phi(spec: str):
    return PhiMap(algebra_A(spec), bplus(spec))


def certificate(ra, dec) -> dict:
    """{clause: passed} of verify.certify_chain on a chain decomposition of
    A(Phi), each clause named by its text up to " (": sum to identity,
    pairwise products, pairwise form, span of the n idempotents is
    associative."""
    rep = VerifyReport("certificate")
    certify_chain(rep, ra, dec)
    return {d.split(" (")[0]: ok for d, ok, _ in rep.clauses}


def closed_images(name: str) -> DecompositionReport:
    """What verify's lemma4.2 passes on the catalog entry name, made from
    the closed forms with no algebra: the charges of verify.closed_charges
    on the entry's default chains, 24 + k non-zero images (stand-ins) and
    no failing pair."""
    entry = catalog_entry(name)
    rs = system(verify.resolve(name))
    charges = [c for c, _ in verify._default_steps(rs, default_chains(rs))]
    one = StructureAlgebra(["b"], lambda: (1, [{}]), lambda: (1, [{}]))
    return DecompositionReport(
        [one.element({0: 1})] * len(charges), charges, name,
        {"dimension": 24 + entry.k, "associative": True})


def run_report_script(monkeypatch, images) -> int:
    """scripts/niemeier_report.py run in this process with each System's
    Lemma 4.2 images replaced by images(system): its exit code."""
    monkeypatch.setattr(verify.System, "images", property(images))
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(REPORT_SCRIPT), run_name="__main__")
    return exc.value.code


def encode_rows(product, form, dim: int) -> tuple:
    """Table sources (griess.algebra) of a table given as rules, the
    reference encoder of the tests' small tables.

    product(i) -> {j: {k: value}} gives b_i * b_j = sum_k value b_k and
    form(i) -> {j: value} gives <b_i, b_j>; values are ints or rationals,
    and zeros, listed or not, are left out.  Either may instead be a
    Mapping keyed by (i, j) with i <= j.  Each table is over the lcm of its
    entries' denominators.
    """
    def rationals(source, entry):
        if not callable(source):
            # a symmetric table keyed by (i, j) with i <= j, grouped in rows
            table = [{} for _ in range(dim)]
            for (i, j), v in source.items():
                table[i][j] = table[j][i] = v
            source = table.__getitem__
        return [{j: e for j, v in sorted(source(i).items()) if (e := entry(v))}
                for i in range(dim)]

    def product_table():
        rows = rationals(product, lambda p: {k: Q(v) for k, v in
                                             sorted(p.items()) if v})
        den = math.lcm(*(v.denominator for row in rows for p in row.values()
                         for v in p.values()))
        return den, [{j: tuple((k, int(v * den)) for k, v in p.items())
                      for j, p in row.items()} for row in rows]

    def form_table():
        rows = rationals(form, Q)
        den = math.lcm(*(v.denominator for row in rows for v in row.values()))
        return den, [{j: int(v * den) for j, v in row.items()}
                     for row in rows]

    return product_table, form_table


def no_identity_algebra():
    """One-dimensional zero multiplication: no identity exists."""
    return StructureAlgebra(["n"], *encode_rows({(0, 0): {}},
                                                {(0, 0): Q(1)}, 1))


def json_document(alg) -> dict:
    """alg.to_json() as a reader of its JSON gets it: lists, not tuples."""
    return json.loads(json.dumps(alg.to_json()))


def basis_element(alg, i: int):
    """The basis element b_i of alg."""
    return alg.element({i: 1})


def polar(space, u: int, v: int) -> int:
    """The polar form q(u+v) - q(u) - q(v) of a GF(2) quadratic space."""
    return space.q(u ^ v) ^ space.q(u) ^ space.q(v)


def dot(x: tuple, y: tuple):
    """The inner product of two rational coordinate vectors."""
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(x, y)), ZERO)


def simple_roots(rs) -> list[tuple]:
    """rs's simple roots as rational coordinates: its doubled ones halved."""
    return [tuple(Q(c, 2) for c in a) for a in rs.doubled_simple_roots]


def scaled(x, s):
    """The element s x of x's algebra."""
    return x.algebra.element({i: c * s for i, c in x.coeffs.items()})


def _e(n: int, *entries) -> tuple:
    """The vector of Q^n with the given (position, value) entries."""
    v = [ZERO] * n
    for i, c in entries:
        v[i] = Q(c)
    return tuple(v)


@lru_cache(maxsize=None)
def _reference_roots(t) -> tuple[list, set]:
    """(simple roots, all roots) of one simple type in its rational
    coordinate model: A_l as e_i - e_j in Q^(l+1), D_l as +-e_i +- e_j in
    Q^l, E_8 as those of D_8 and the (+-1/2)^8 with an even number of minus
    signs; E_7 and E_6 take the first 7 / 6 Bourbaki simple roots of E_8."""
    l = t.rank
    if t.family == "A":
        n = l + 1
        simple = [_e(n, (i, 1), (i + 1, -1)) for i in range(l)]
        return simple, {_e(n, (i, 1), (j, -1))
                        for i in range(n) for j in range(n) if i != j}
    n = l if t.family == "D" else 8
    roots = {_e(n, (i, si), (j, sj)) for i in range(n) for j in range(i + 1, n)
             for si in (-1, 1) for sj in (-1, 1)}
    if t.family == "D":
        simple = [_e(n, (i, 1), (i + 1, -1)) for i in range(l - 1)]
        return simple + [_e(n, (l - 2, 1), (l - 1, 1))], roots
    roots |= {tuple(Q(s, 2) for s in signs)
              for signs in itertools.product((1, -1), repeat=8)
              if signs.count(-1) % 2 == 0}
    simple = [tuple(Q(c, 2) for c in (1, -1, -1, -1, -1, -1, -1, 1)),
              _e(8, (0, 1), (1, 1))]
    simple += [_e(8, (i - 2, 1), (i - 3, -1)) for i in range(3, 9)]
    return simple[:l], roots


class ReferenceSystem:
    """A root system built from rational coordinates by definition: the
    positive roots are the roots reached from the simple roots by adding one
    simple root at a time, and every pair of positive roots is compared by a
    plain dot product.  rel[i][j] is 0 for i = j, 1 for non-orthogonal and 2
    for orthogonal roots; gamma[(i, j)] is the positive root +-(r_i -+ r_j)
    of a non-orthogonal pair; neighbours lists (j, gamma) per root in j
    order."""

    def __init__(self, spec: str):
        blocks = [_reference_roots(t) for t in parse_spec(spec)]
        dim = sum(len(simple[0]) for simple, _ in blocks)
        l = sum(len(simple) for simple, _ in blocks)
        self.positive_roots, self.simple_roots, self.simple_coeffs = [], [], []
        offset = simple_offset = 0
        for simple, roots in blocks:
            d, rank = len(simple[0]), len(simple)

            def embed(r):
                return (ZERO,) * offset + r + (ZERO,) * (dim - offset - d)

            found = {a: tuple(int(k == m) for m in range(rank))
                     for k, a in enumerate(simple)}
            frontier = list(found)
            while frontier:
                nxt = []
                for r in frontier:
                    for k, a in enumerate(simple):
                        s = tuple(x + y for x, y in zip(r, a))
                        if s in roots and s not in found:
                            c = found[r]
                            found[s] = c[:k] + (c[k] + 1,) + c[k + 1:]
                            nxt.append(s)
                frontier = nxt
            for c, r in sorted((c, r) for r, c in found.items()):
                self.positive_roots.append(embed(r))
                self.simple_coeffs.append(
                    (0,) * simple_offset + c
                    + (0,) * (l - simple_offset - rank))
            self.simple_roots += [embed(a) for a in simple]
            offset += d
            simple_offset += rank
        roots = self.positive_roots
        n = len(roots)
        index = {r: i for i, r in enumerate(roots)}
        index.update({tuple(-c for c in r): i for i, r in enumerate(roots)})
        self.rel = [[0] * n for _ in range(n)]
        self.gamma = {}
        self.neighbours = [[] for _ in range(n)]
        support = [[(c, a) for c, a in enumerate(r) if a] for r in roots]
        for i, j in itertools.combinations(range(n), 2):
            # the dot product over the non-zero coordinates of r_i
            d = sum(a * roots[j][c] for c, a in support[i])
            self.rel[i][j] = self.rel[j][i] = 1 if d else 2
            if d:
                pair = zip(roots[i], roots[j])
                g = index[tuple(a - b if d > 0 else a + b for a, b in pair)]
                self.gamma[(i, j)] = self.gamma[(j, i)] = g
        for (i, j), g in sorted(self.gamma.items()):
            self.neighbours[i].append((j, g))


@lru_cache(maxsize=None)
def reference(spec: str) -> ReferenceSystem:
    return ReferenceSystem(spec)


def mul_vector(m, v) -> list:
    """The product of a QMatrix with a vector, by the definition."""
    assert len(v) == m.cols
    return [sum(r[j] * v[j] for j in range(m.cols)) for r in m.entries]


def basis_form(alg, i: int, j: int):
    """<b_i, b_j>, read from the form table."""
    den, rows = alg.form_table
    return Q(rows[i].get(j, 0), den)


def is_idempotent(e) -> bool:
    return e * e == e


def gram_matrix(alg) -> QMatrix:
    """The dense Gram matrix of the form on the basis."""
    return QMatrix([[basis_form(alg, i, j) for j in range(alg.dim)]
                    for i in range(alg.dim)])


def radical_dimension(alg) -> int:
    """dim minus the exact rank of the Gram matrix."""
    return alg.dim - gram_matrix(alg).rank()


def phi_matrix(p) -> QMatrix:
    """The dense matrix of phi: column i is the image of b_i."""
    cols = [p.image({i: 1}) for i in range(p.domain.alg.dim)]
    return QMatrix([[Q(c.get(k, 0), 2) for c in cols]
                    for k in range(p.codomain.dim)])


def null_space(solver: SparseSolver) -> list[dict]:
    """A basis of the v with row . v = 0 for every row fed to solver, rhs
    aside, as integer dicts, one per free column c (no pivot column) in
    increasing order, positive at c and 0 at the other free columns.
    The pivot rows are mutually reduced, so pivot row p with pivot
    column pc reads p[pc] v[pc] + p[c] v[c] = 0; v[c] is the lcm of the
    p[pc] over the rows p with an entry in column c."""
    out = []
    free = (c for c in range(solver.n) if c not in solver.pivot_rows)
    for c in free:
        rows = [(pc, solver.pivot_rows[pc][0])
                for pc in sorted(solver.holders.get(c, ()))]
        m = math.lcm(*(row[pc] for pc, row in rows))
        out.append({c: m, **{pc: -row[c] * (m // row[pc])
                             for pc, row in rows}})
    return out


def kernel_basis(m: QMatrix) -> list[list]:
    """Basis of the right null space of m; each v satisfies m v = 0
    exactly and is 1 in its free column: null_space of the rows of m fed
    to a SparseSolver, scaled."""
    solver = SparseSolver(m.cols)
    for row in m.entries:
        solver.add_equation({j: v for j, v in enumerate(row) if v}, ZERO)
    free = [c for c in range(m.cols) if c not in solver.pivot_rows]
    return [[Q(v.get(j, 0), v[c]) for j in range(m.cols)]
            for c, v in zip(free, null_space(solver))]


def phi_kernel_basis(p) -> list[list]:
    return kernel_basis(phi_matrix(p))


def f2_rref(rows) -> tuple[int, ...]:
    """Reduced row echelon form over GF(2) of bitmask rows: the non-zero
    rows, highest leading bit first, each leading bit set in one row only.
    min(x, x ^ p) clears the leading bit of p from x: x ^ p < x iff x has
    that bit set."""
    basis: list[int] = []
    for r in rows:
        for p in basis:
            r = min(r, r ^ p)
        if r:
            basis = [min(p, p ^ r) for p in basis]
            basis.append(r)
            basis.sort(reverse=True)
    return tuple(basis)


def reference_lagrangians(space) -> int:
    """Count maximal totally singular subspaces level by level: extend each
    isotropic r-space by every singular vector with none of its leading
    bits that passes the polar test q(u+v) - q(u) - q(v) = 0 against the
    basis, canonicalize by f2_rref and drop repeats through a set.  Every
    vector of each distinct extension is re-checked to be singular; a
    non-singular one raises ValueError, as in brute_force_lagrangians."""
    q = [space.q(v) for v in range(1 << space.dim)]
    singular = [v for v in range(1, len(q)) if q[v] == 0]
    level: set[tuple[int, ...]] = {()}
    for _ in range(space.witt_index):
        nxt: set[tuple[int, ...]] = set()
        for basis in level:
            leading = sum(1 << (p.bit_length() - 1) for p in basis)
            for v in singular:
                if v & leading:
                    continue
                if any(q[v ^ w] ^ q[v] ^ q[w] for w in basis):
                    continue
                nb = f2_rref(basis + (v,))
                if nb in nxt:
                    continue
                bad = next((x for x in f2_span(nb) if q[x]), None)
                if bad is not None:
                    raise ValueError(
                        f"non-singular vector {bad:0{space.dim}b} in the span "
                        "of " + ", ".join(f"{b:0{space.dim}b}" for b in nb))
                nxt.add(nb)
        level = nxt
    return len(level)


@pytest.fixture
def builders():
    return system, algebra_A, algebra_T, bplus, phi
