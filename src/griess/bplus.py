"""The weight-2 algebra of the fixed-point lattice vertex operator algebra.

For a simply-laced root system the algebra lives on S^2(H) plus one
generator x_alpha per positive root, where H is the rational span of the
roots.  We use the simple roots as the basis of H; symmetric products
a_i a_j (i <= j) of simple roots index the S^2 block.  Products and the
form on general symmetric tensors follow by polarizing the rules on
squares, which is the unique symmetric bilinear extension:

    (ab)(cd)   = (a,c)bd + (a,d)bc + (b,c)ad + (b,d)ac
    (ab)x_r    = 2(a,r)(b,r) x_r
    x_r x_s    = 0 / x_g / 2 r^2        (orthogonal / close via g / equal)
    <ab,cd>    = (a,c)(b,d) + (a,d)(b,c)
    <ab,x_r>   = 0,  <x_r,x_s> = 2 [r=s]

Element products run on a matrix form of these rules.  The S^2 part
sum_{a<=b} c_ab a_a a_b of an element is the symmetric integer matrix X'
with X'_aa = 2 c_aa and X'_ab = X'_ba = c_ab, and with S the Cartan matrix
the first rule reads

    X'.Y' = X'SY' + Y'SX',  so  coef s(b,b) = (X'SY')_bb  and
                                coef s(b,d) = (X'SY' + Y'SX')_bd, b < d.

S has at most four non-zeros per row, so X'S costs O(|X| deg).  The
second rule gives x_r the coefficient q_X(r) = p_r^T X' p_r, a quadratic
form in the pairings p_r = ((alpha_a, r))_a, which have at most four
non-zeros in type A, and x_r x_s reads the root relations.  The form runs
on the same matrices: polarizing the rule for <ab, cd>,

    <X, Y> = 1/2 tr(X'S Y'S) + 2 sum_r x_r y_r,

symmetric for any S.  B+'s form table, the gram of to_json, holds the
Gram vectors of the basis elements: <X, s(c, d)> is the symmetric part of
M = S X'S at (c, d), read in one pass over the rows of M.  The product
rules above, written as one integer table, remain the product table of
basis_product and to_json.

The linear map from the root algebra sends t(alpha) to alpha^2/2 - x_alpha
and u(alpha) to alpha^2/2 + x_alpha, an isometric algebra homomorphism
onto the sum of B+(Phi_c) over the components c, as alpha^2 lies in
S^2(H_c).  So it is onto B+ on an irreducible system, bijective exactly in
type A; on a direct sum it misses the cross terms h_c h_c' (rank 48 < dim
324 on A1^24).  PhiMap.rank counts the image: the M_r = 4 x_r span the x
block; if every alpha_r^2 = sym(c_r, c_r), the P_r = 2 alpha_r^2 span
S^2(H_c), by induction on the length of the path root x+m+y from simple
root a to b, x = alpha_a, y = alpha_b: (x+m+y)^2 - (m+y)^2 - (x+m)^2 + m^2
= 2 s(a, b).  B+'s form is positive definite, as S is, so the kernel of an
isometry is the radical of the root algebra's form (Corollary 3.2).
verify_theorem_3_1 checks this in one pass over the root pairs r, s, where
the products and forms of the images of good roots are a few integers such
as c_r^T S c_s, compared with A's entries coordinate by coordinate.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress
from operator import add, mul

from .algebra import AlgebraElement, StructureAlgebra
from .ratio import Q
from .rootalgebra import RootAlgebra
from .rootsys import RootSystem


def _sym_pairs(l: int) -> tuple[list, list]:
    """The pairs (a, b), a <= b, indexing the S^2 basis in order, and the
    index of s(a, b) by a and b in either order."""
    pairs = [(a, b) for a in range(l) for b in range(a, l)]
    idx = [[0] * l for _ in range(l)]
    for k, (a, b) in enumerate(pairs):
        idx[a][b] = idx[b][a] = k
    return pairs, idx


def _square(c, idx: list) -> dict:
    """sym(c, c) over the S^2 basis: the square of sum_a c_a alpha_a."""
    supp = [a for a, v in enumerate(c) if v]
    return {idx[a][b]: c[a] * c[b] * (1 if a == b else 2)
            for a in supp for b in supp if a <= b}


class _Operand(dict):
    """Integer coefficients of a B+ element, holding the parts the kernel
    reads once it first multiplies or pairs them: the x block as {r: coef}
    and as a list over all roots, the rows a of X' and of X'S that are not
    zero, the columns where X'S is not zero, and q_X per root as needed."""

    __slots__ = ("xs", "xl", "rows", "srows", "cols", "q")

    def __init__(self, nums):
        super().__init__(nums)
        self.xs = None


class BPlusStructure(StructureAlgebra):
    """B+ of the root system rs, whose products and forms of elements run
    on the structure (module docstring) instead of the basis tables.

    The kernel reads rs's simple-root coefficients and relation lists, the
    Cartan matrix S, per positive root r the pairings (a, (alpha_a, r))
    that are not zero, and alpha_r^2 over the ns elements of the S^2 basis
    (squares).  basis_product and to_json read the table of the product
    source; the form table is made from the kernel, one Gram row per
    basis element (_gram_row).
    """

    def __init__(self, basis_labels, product, rs, cartan, pairings, squares):
        super().__init__(basis_labels, product, lambda: (
            2, [self._gram_row(i) for i in range(self.dim)]))
        l = self._l = len(cartan)
        self._pair, self._idx = _sym_pairs(l)
        self.ns = len(self._pair)
        self.cartan = cartan
        # the rows and the columns of S, as (c, value) where it is not 0
        self._near = [[(c, v) for c, v in enumerate(row) if v]
                      for row in cartan]
        self._cnear = [[(c, row[b]) for c, row in enumerate(cartan) if row[b]]
                       for b in range(l)]
        self._pcol = pairings
        self.rs = rs
        self._coeffs = rs.simple_coeffs
        self._nbrs = rs.neighbours
        self._sq = squares

    def operand(self, nums: dict) -> _Operand:
        return _Operand(nums)

    @functools.cached_property
    def product_bound(self) -> tuple[int, int]:
        """(K, 1) with K at least every numerator of the product table, from
        the data the kernel reads, so that the table is not built, one
        term per rule (module docstring): (ab)(cd) is four Cartan entries
        times an s(., .) each, so at most 4 max |S| on one s(., .);
        (ab) x_r = 2 (a, r)(b, r) x_r; x_r x_r = 2 a_r^2; and x_r x_s adds
        x_g once per (s, g) in r's neighbour list."""
        return max(4 * max(abs(v) for row in self.cartan for v in row),
                   2 * max((p * p for col in self._pcol for _, p in col),
                           default=0),
                   2 * max((abs(v) for sq in self._sq for v in sq.values()),
                           default=0),
                   max((max(Counter(n).values()) for n in self._nbrs if n),
                       default=0)), 1

    def _parts(self, x: dict) -> _Operand:
        """x as an _Operand with its kernel parts, filled on first use."""
        if type(x) is not _Operand:
            x = _Operand(x)
        elif x.xs is not None:
            return x
        ns, l, pair = self.ns, self._l, self._pair
        xs, rows = {}, {}
        xl = [0] * len(self._nbrs)
        for k, v in x.items():
            if k >= ns:
                xs[k - ns] = xl[k - ns] = v
                continue
            a, b = pair[k]
            if a == b:
                rows.setdefault(a, [0] * l)[a] = 2 * v
            else:
                rows.setdefault(a, [0] * l)[b] = v
                rows.setdefault(b, [0] * l)[a] = v
        srows = {}
        for b, row in rows.items():
            out = srows[b] = [0] * l
            for a, v in enumerate(row):
                if v:
                    for c, s in self._near[a]:
                        out[c] += v * s
        x.cols = {c for row in srows.values() for c in compress(range(l), row)}
        x.xs, x.xl, x.rows, x.srows, x.q = xs, xl, rows, srows, {}
        return x

    def _gram_row(self, i: int) -> dict:
        """Form row i over denominator 2, by the form's trace (module
        docstring): 2 <X, s(c, d)> = M_cd + M_dc with M = S X'S, whose rows
        c sum the rows b of X'S times S_cb, and 2 <X, x_r> = 4 x_r.  An S
        that is not symmetric can make M_cd + M_dc odd."""
        x, l, idx = self._parts({i: 1}), self._l, self._idx
        g = defaultdict(int)  # 2 <b_i, b_j>
        for b, row in x.srows.items():
            for c, s in self._cnear[b]:  # M_cd += S_cb (X'S)_bd
                ic = idx[c]
                for d in compress(range(l), row):
                    g[ic[d]] += s * row[d] * (1 + (c == d))
        g.update((self.ns + r, 4 * v) for r, v in x.xs.items())
        return {k: g[k] for k in sorted(g) if g[k]}

    def _q(self, x: _Operand, r: int) -> int:
        """q_X(r) = p_r^T X' p_r, memoized on x, where (X' p_r)_a is row a
        of X'S dotted with r's simple-root coefficients."""
        v = x.q.get(r)
        if v is None:
            srows, c = x.srows, self._coeffs[r]
            v = 0
            for a, p in self._pcol[r]:
                row = srows.get(a)
                if row is not None:
                    v += p * sum(map(mul, row, c))
            x.q[r] = v
        return v

    def rank_one(self) -> list:
        """Per root r, whether a_r^2 = sym(c_r, c_r), c_r the simple-root
        coefficients the kernel reads, so that P_r = 2 a_r^2 of
        PhiMap.parts has X' = 4 c_r c_r^T."""
        return [sq == _square(c, self._idx)
                for sq, c in zip(self._sq, self._coeffs)]

    def pair_mismatches(self, A: StructureAlgebra, good: list):
        """Per root r in turn, (r, {s: (products, forms)}) over the roots
        s >= r at which bilinear may give a non-zero product or form of
        phi's operands of r and s (PhiMap.parts), with the basis pairs that
        fail as _pair_mismatches lists them.  For good roots (rank_one),
        with k = c_r^T S c_s, k' = c_s^T S c_r and p_s the pairings of s:
            P_r P_s = 16 k sym(c_r, c_s),     P_r M_s = 16 (p_s . c_r) k x_s,
            M_r P_s = 16 (p_r . c_s) k' x_r,  M_r M_s = 16 x_g per (s, g) in
            r's neighbour list, plus 32 a_r^2 if r = s; the forms are 8 k k'
            and 32 [r = s] on P_r P_s and M_r M_s, else 0.  phi of A's entry,
        sum_q (c_q + d_q) a_q^2 + 2 (d_q - c_q) x_q for t_q, u_q at c_q, d_q,
        is summed in the same coordinates: a root g other than r, s needs a
        good square and c_g = +-(c_r +- c_s), so a_g^2 = a_r^2 + a_s^2 +
        e sym(c_r, c_s), e = +-2.  Pairs where all eight are 0 are left out;
        one on a root that is not good, or with an entry on another, has None.
        """
        l, N, coeffs, near = self._l, self.rs.N, self._coeffs, self._near
        (aden, prows), (fden, frows) = A.product_table, A.form_table
        loose = [s for s in range(N) if not good[s]]
        cols = [[c[a] for c in coeffs] for a in range(l)]
        # key(c) = sum_a c_a base^a is linear, and one-to-one on the
        # differences of c_g and c_r +- c_s, whose entries lie in +-2 max c
        base = 4 * max(map(max, coeffs)) + 1
        key = [sum(v * base ** a for a, v in enumerate(c)) for c in coeffs]
        third = {kq: q for q, kq in enumerate(key) if good[q]}

        def along(w, r):  # w . c_s over s >= r
            out = [0] * (N - r)
            for a in compress(range(l), w):
                out = list(map(add, out, map(w[a].__mul__, cols[a][r:])))
            return out

        for r, c in enumerate(coeffs):
            if not good[r]:
                yield r, dict.fromkeys(range(r, N))
                continue
            left, right = [0] * l, [0] * l  # c^T S and S c
            for a, ca in enumerate(c):
                for b, v in near[a]:
                    left[b] += ca * v
                    right[a] += v * c[b]
            kl = along(left, r)  # c^T S c_s, and c_s^T S c in kr
            kr = kl if left == right else along(right, r)
            nb: dict = {}  # s: the g of (s, g) in r's neighbour list
            for s, g in self._nbrs[r]:
                nb[s] = nb.get(s, ()) + (g,)
            row = dict.fromkeys(s for s in loose if s > r)
            for s in {*compress(range(r, N), kl), *compress(range(r, N), kr),
                      *(s for s in nb if s > r), r}.difference(row):
                k, kt, cs = kl[s - r], kr[s - r], coeffs[s]
                ps = sum(p * c[a] for a, p in self._pcol[s]) if k else 0
                pr = sum(p * cs[a] for a, p in self._pcol[r]) if kt else 0
                ks, kd = key[r] + key[s], abs(key[r] - key[s])
                g, e = (third[ks], 2) if ks in third else (third.get(kd), -2)
                hs = nb.get(s, ())  # M_r M_s on x_r, x_s, x_g or another x
                nr, ns, ng = hs.count(r), (s != r) * hs.count(s), hs.count(g)
                prods, forms, other = [], [], False
                for i, j, (_, s2, s3, m) in _basis_pairs(N, r, s):
                    # the image's a_q^2 and x_q / 2 per q = r, s, g
                    ar = as_ = ag = xr = xs = xg = 0
                    for t, v in prows[i].get(j, ()):
                        q, w = (t - N, v) if t >= N else (t, -v)
                        if q == r:
                            ar, xr = ar + v, xr + w
                        elif q == s:
                            as_, xs = as_ + v, xs + w
                        elif q == g:
                            ag, xg = ag + v, xg + w
                        else:
                            other = True
                    if r == s:  # a_r^2, x_r
                        ok = (ar == aden * (2 * k + 4 * m) and xr == aden * (
                            s2 * k * ps + s3 * kt * pr + m * nr))
                    else:  # sym(c_r, c_s); a_r^2 and a_s^2; x_r, x_s, x_g
                        ok = (2 * aden * k == e * ag and ar == as_ == -ag
                              and xr == aden * (s3 * kt * pr + m * nr)
                              and xs == aden * (s2 * k * ps + m * ns)
                              and xg == aden * m * ng)
                    if not ok or len(hs) != nr + ns + ng:
                        prods.append((i, j))
                    if (k * kt + 4 * m * (r == s)) * fden != 2 * frows[i].get(
                            j, 0):
                        forms.append((i, j))
                row[s] = None if other else (prods, forms)
            yield r, row

    def bilinear(self, x, y, form: bool = False) -> tuple:
        """x * y, or <x, y> if form, from the structure: the product over
        denominator 1, the form 1/2 tr(X'S Y'S) + 2 sum_r x_r y_r over 2."""
        x, y = self._parts(x), self._parts(y)
        # the sparser x block is walked, the other read from its list
        xs, yl = (x.xs, y.xl) if len(x.xs) <= len(y.xs) else (y.xs, x.xl)
        if form:
            # tr(X'S Y'S) sums (X'S)_bd (Y'S)_db over the rows b and d
            return (sum(sb[d] * yd[b] for b, sb in x.srows.items()
                        for d, yd in y.srows.items())
                    + 4 * sum(c * yl[r] for r, c in xs.items())), 2
        ns, dim = self.ns, self.dim
        # a list over the basis for dense operands, which is faster to
        # index; a dict for sparse ones, which is cheaper to create and read
        dense = len(x) + len(y) > dim // 2
        acc = [0] * dim if dense else defaultdict(int)
        # S^2 S^2: M = X'SY' adds M_bd to s(b, d) for every b, d, so s(b, d)
        # gets M_bd + M_db; M = 0 unless a column of X'S meets a row of Y'
        if not x.cols.isdisjoint(y.rows):
            yrows = y.rows.items()
            for b, sb in x.srows.items():
                ib = self._idx[b]
                for d, yd in yrows:
                    if v := sum(map(mul, sb, yd)):
                        acc[ib[d]] += v
        # S^2 x_r: q_X(r) y_r + q_Y(r) x_r
        for u, v in ((x, y), (y, x)):
            if u.rows:
                for r, c in v.xs.items():
                    if q := self._q(u, r):
                        acc[ns + r] += q * c
        # x_r x_s: x_g on neighbours, 2 r^2 on equal roots
        if xs:
            nbrs, sq = self._nbrs, self._sq
            xacc = [0] * len(yl)
            for r, c in xs.items():
                if w := yl[r]:
                    w *= 2 * c
                    for k, v in sq[r].items():
                        acc[k] += w * v
                for s, g in nbrs[r]:
                    xacc[g] += c * yl[s]
            for g in compress(range(len(xacc)), xacc):
                acc[ns + g] += xacc[g]
        if dense:
            acc = {k: acc[k] for k in compress(range(dim), acc)}
        return acc, 1


def build_bplus(rs: RootSystem) -> BPlusStructure:
    """B+ of rs on its S^2(H) kernel, with a product table source that
    writes the product rules (module docstring) one pair i <= j at a time;
    neither table is built until it is read."""
    l, N = rs.l, rs.N
    sym_pairs, idx = _sym_pairs(l)
    ns = len(sym_pairs)

    # Cartan matrix of the simple roots, from the doubled coordinates
    simple = rs.doubled_simple_roots
    S = [[sum(map(mul, x, y)) // 4 for y in simple] for x in simple]
    near = [[c for c in range(l) if S[a][c]] for a in range(l)]
    # P[a] = {r: (alpha_a, r)} over the positive roots r where it is not 0,
    # and per root r the (a, (alpha_a, r)) that are not 0
    P: list[dict] = [{} for _ in range(l)]
    pcol: list[list] = []
    squares: list[dict] = []  # alpha^2 of each positive root over S^2
    for r, c in enumerate(rs.simple_coeffs):
        supp = [b for b in range(l) if c[b]]
        pr: dict = {}  # (alpha_a, r) = sum_b S[a][b] c_b, over a near supp
        for b in supp:
            for a in near[b]:
                pr[a] = pr.get(a, 0) + S[a][b] * c[b]
        pcol.append(col := sorted((a, p) for a, p in pr.items() if p))
        for a, p in col:
            P[a][r] = p
        squares.append(_square(c, idx))

    def upper(i: int) -> dict:
        """Row i's entries at the j >= i, in j order: terms in index
        order, zeros left out."""
        if i >= ns:
            r = i - ns
            row = {i: tuple((k, 2 * v) for k, v in squares[r].items())}
            row.update((ns + s, ((ns + g, 1),))
                       for s, g in rs.neighbours[r] if s > r)
            return row
        a, b = sym_pairs[i]
        # (ab)(cd) = (a,c)bd + (a,d)bc + (b,c)ad + (b,d)ac, collected per cd
        # from the c that are a, b or a Cartan neighbour of one.  A square cc
        # stands for both orderings of (c, d), so it takes its term twice.
        row = {}
        for x, y in ((a, b), (b, a)):
            for c in near[x]:
                for d in range(l):
                    if (j := idx[c][d]) >= i:
                        terms = row.setdefault(j, {})
                        k = idx[y][d]
                        terms[k] = terms.get(k, 0) + S[x][c] * (1 + (c == d))
        out = {j: e for j in sorted(row)
               if (e := tuple(sorted(t for t in row[j].items() if t[1])))}
        pa, pb = P[a], P[b]
        out.update((ns + r, ((ns + r, 2 * pa[r] * pb[r]),))
                   for r in sorted(pa.keys() & pb.keys()))
        return out

    def product() -> tuple:
        """The table over denominator 1, each pair i <= j made once and
        stored in both its rows, so that every row gets its j in
        increasing order."""
        rows: list[dict] = [{} for _ in range(ns + N)]
        for i, row in enumerate(rows):
            for j, e in upper(i).items():
                row[j] = rows[j][i] = e
        return 1, rows

    labels = ([f"s({a},{b})" for a, b in sym_pairs]
              + [f"x({r})" for r in range(N)])
    return BPlusStructure(labels, product, rs, S, pcol, squares)


@dataclass
class PhiMap:
    """Linear map from the root algebra onto the weight-2 algebra."""

    domain: RootAlgebra
    codomain: BPlusStructure

    def __post_init__(self):
        if self.domain.rs is not self.codomain.rs:
            raise ValueError("root systems do not match")
        if self.domain.t_only:
            raise ValueError("the map is defined on the full algebra")

    def image(self, nums: dict) -> dict:
        """2 phi(sum_i n_i b_i) in integer numerators over the basis of B+,
        for integer n_i: c t(alpha) + d u(alpha) maps to (c + d) alpha^2 +
        2 (d - c) x_alpha, summed per root so each alpha^2 is added once."""
        bp, N = self.codomain, self.codomain.rs.N
        sums, diffs = {}, {}  # per root: c + d and d - c
        for i, c in nums.items():
            r = i % N
            sums[r] = sums.get(r, 0) + c
            diffs[r] = diffs.get(r, 0) + (c if i >= N else -c)
        out: dict = {}
        for r, c in sums.items():
            if c:
                for k, v in bp._sq[r].items():
                    out[k] = out.get(k, 0) + c * v
        out = {k: v for k, v in out.items() if v}
        out.update((bp.ns + r, 2 * v) for r, v in diffs.items() if v)
        return out

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        nums, den = a._integer_coeffs()
        return AlgebraElement(self.codomain, {
            k: Q(v, 2 * den) for k, v in self.image(nums).items()})

    @functools.cached_property
    def parts(self) -> list:
        """Per root r, (P_r, M_r) as operands of B+: P_r = 2 phi(t_r + u_r)
        = 2 a_r^2, with no x, and M_r = 2 phi(u_r - t_r) = 4 x_r, with no
        alpha^2.  The 2N rows span the image."""
        B, N = self.codomain, self.domain.rs.N
        return [(B.operand(self.image({r: 1, N + r: 1})),
                 B.operand(self.image({r: -1, N + r: 1}))) for r in range(N)]

    @functools.cached_property
    def uncounted(self) -> str | None:
        """Why rank is None (module docstring): the first root whose alpha^2
        is not sym(c, c), or the first pair with no path root."""
        rs, good = self.domain.rs, self.codomain.rank_one()
        if False in good:
            return f"alpha^2 of root {good.index(False)} is not sym(c, c)"
        edges = [e for e in rs.supports if len(e) == 2]  # of the diagram
        paths = set()  # (a, b) per path root from a to b
        for c, s in zip(rs.simple_coeffs, rs.supports):
            deg = Counter(a for e in edges if e <= s for a in e)
            if max(c) == 1 and all(d < 3 for d in deg.values()):
                ends = [a for a in sorted(s) if deg[a] < 2]
                paths.add((ends[0], ends[-1]))
        gap = next(((a, b) for sl in rs.component_simple_slices for a in sl
                    for b in range(a, sl.stop) if (a, b) not in paths), None)
        return gap and "no path root from simple root %d to %d" % gap

    @functools.cached_property
    def rank(self) -> int | None:
        """dim phi(A), counted (module docstring), or None if uncounted."""
        return None if self.uncounted else self.domain.rs.N + sum(
            c.rank * (c.rank + 1) // 2 for c in self.domain.rs.components)


def _basis_pairs(N: int, r: int, s: int) -> list:
    """(i, j, signs) per basis pair i <= j of roots r <= s: with 4 phi(t_r)
    = P_r - M_r and 4 phi(u_r) = P_r + M_r, 16 phi(b_i) phi(b_j) sums P_r
    P_s, P_r M_s, M_r P_s, M_r M_s with these signs, and so does
    16 <phi(b_i), phi(b_j)> with their forms.  On r = s the last pair is
    (t_r, u_r) again, whose products and forms commute."""
    return [(r, s, (1, -1, -1, 1)), (r, N + s, (1, 1, -1, -1)),
            (N + r, N + s, (1, 1, 1, 1)), (s, N + r, (1, -1, 1, -1))]


def _pair_mismatches(phi: PhiMap, r: int, s: int) -> tuple:
    """The basis pairs of roots r <= s with phi(b_i) phi(b_j) !=
    phi(b_i b_j), from B+'s products of phi.parts[r] and phi.parts[s],
    which are over 1: diff = 16 aden (phi(b_i) phi(b_j) - image /
    (2 aden)); and those with 16 <phi(b_i), phi(b_j)> != 16 <b_i, b_j>,
    from B+'s forms of them."""
    A, B, N = phi.domain.alg, phi.codomain, phi.domain.rs.N
    (aden, rows), (fden, frows) = A.product_table, A.form_table
    x, y = phi.parts[r], phi.parts[s]
    prods = [B.bilinear(a, b)[0] for a in x for b in y]
    forms = [Q(*B.bilinear(a, b, True)) for a in x for b in y]
    out, bad_forms = [], []
    for i, j, signs in _basis_pairs(N, r, s):
        diff = {k: -8 * v
                for k, v in phi.image(dict(rows[i].get(j, ()))).items()}
        for sign, p in zip(signs, prods):
            for k, v in p.items():
                diff[k] = diff.get(k, 0) + sign * aden * v
        if any(diff.values()):
            out.append((i, j))
        if sum(map(mul, signs, forms)) != 16 * Q(frows[i].get(j, 0), fden):
            bad_forms.append((i, j))
    return out, bad_forms


def verify_theorem_3_1(phi: PhiMap) -> tuple:
    """The least basis pair i <= j with phi(b_i) phi(b_j) != phi(b_i b_j),
    the least with <phi(b_i), phi(b_j)> != <b_i, b_j> (None if there is
    none) and phi.rank, in one pass over the root pairs r <= s: a kept pair
    by B.pair_mismatches, or by _pair_mismatches where that gives None; a
    pair (r, s > r) left out, where B+'s products and forms are 0, by A's
    rows of t_r and u_r (A's tables are symmetric)."""
    A, B, N = phi.domain.alg, phi.codomain, phi.domain.rs.N
    (_, prows), (_, frows) = A.product_table, A.form_table
    products, forms = [], []
    for r, row in B.pair_mismatches(A, B.rank_one()):
        for s, bad in row.items():
            bad = bad or _pair_mismatches(phi, r, s)
            products += bad[0]
            forms += bad[1]
        # the pairs (r, s > r) left out: B+'s products and forms are 0
        for i in (r, N + r):
            for j in prows[i].keys() | frows[i].keys():
                if (s := j % N) > r and s not in row:
                    pair = (i, j) if i < j else (j, i)
                    if j in prows[i] and phi.image(dict(prows[i][j])):
                        products.append(pair)
                    if j in frows[i]:
                        forms.append(pair)
    return (min(products, default=None), min(forms, default=None),
            phi.rank)
