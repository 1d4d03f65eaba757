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
non-zeros in type A, and x_r x_s reads the root relations.  The basis rows
above, as dicts of ints read through encode_rows, remain the row source of
the algebra's tables (basis_product, to_json); forms are read from them.

The linear map from the root algebra sends t(alpha) to alpha^2/2 - x_alpha
and u(alpha) to alpha^2/2 + x_alpha; it is a surjective isometric algebra
homomorphism, bijective exactly in type A, with kernel equal to the
radical of the form on the root algebra otherwise.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from operator import add, mul

from .algebra import AlgebraElement, StructureAlgebra, encode_rows
from .exactlin import SparseSolver
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


class _Operand(dict):
    """Integer coefficients of a B+ element, holding the parts the kernel
    reads once it first multiplies them: the x block as {r: coef} and as a
    list over all roots, the rows a of X' and of X'S that are not zero, the
    columns where X'S is not zero, and q_X per root as needed."""

    __slots__ = ("xs", "xl", "rows", "srows", "cols", "q")

    def __init__(self, nums):
        super().__init__(nums)
        self.xs = None


class BPlusStructure(StructureAlgebra):
    """The StructureAlgebra of B+, whose products of elements run on the
    structure (module docstring) instead of the compiled basis rows.

    The kernel reads the root system's simple-root coefficients and
    relation lists, the Cartan matrix S, per positive root r the pairings
    (a, (alpha_a, r)) that are not zero, and alpha_r^2 over the S^2 basis
    (squares).  Forms, basis_product and to_json read the rows of the row
    sources.
    """

    def __init__(self, basis_labels, product, form, rs, cartan, pairings,
                 squares):
        super().__init__(basis_labels, product, form)
        l = self._l = len(cartan)
        self._pair, self._idx = _sym_pairs(l)
        self.ns = len(self._pair)
        self._near = [[(c, v) for c, v in enumerate(row) if v]
                      for row in cartan]
        self._pcol = pairings
        self._coeffs = rs.simple_coeffs
        self._nbrs = rs.neighbours
        self._sq = squares

    def operand(self, nums: dict) -> _Operand:
        return _Operand(nums)

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

    def _rank_one(self, x: dict, r: int) -> bool:
        """Whether x is k c c^T + m x_r for rationals k, m, with c root r's
        simple-root coefficients as the kernel reads them: row a of X' is
        k c_a c, checked as c_a0^2 X'_a = X'_a0a0 c_a c for one a0 with
        c_a0 != 0, and the x block has no entry but at r."""
        x, c = self._parts(x), self._coeffs[r]
        if any(v and s != r for s, v in x.xs.items()):
            return False
        if any(any(row) for a, row in x.rows.items() if not c[a]):
            return False
        zero = [0] * self._l
        a0 = next(a for a, v in enumerate(c) if v)
        kd, k = c[a0] * c[a0], x.rows.get(a0, zero)[a0]
        want = [k * v for v in c]
        return all([kd * v for v in x.rows.get(a, zero)]
                   == [ca * w for w in want] for a, ca in enumerate(c) if ca)

    def coupled(self, parts: list) -> list:
        """Per root r, the set of roots s >= r at which bilinear may give a
        non-zero product of an operand in parts[r] with one in parts[s],
        parts holding a tuple of operands per root.

        A pair r < s is left out when every operand of r and of s is
        k c c^T + m x over its own root (_rank_one), both c_r^T S c_s and
        c_s^T S c_r are 0, and neither root is in the other's neighbour
        list.  Each term of bilinear is then 0: the S^2 S^2 term adds
        X'SY' = k k' (c_r^T S c_s) c_r c_s^T to its mirror; q_X(s) of
        X' = k c_r c_r^T is k (p_s . c_r)(c_r^T S c_s), and q_Y(r) likewise
        carries c_s^T S c_r; x_r x_s walks the neighbour list of the root
        of the sparser x block, and r != s gives no square."""
        l, N, near, coeffs = self._l, len(parts), self._near, self._coeffs
        loose = {s for s, ops in enumerate(parts)
                 if not all(self._rank_one(x, s) for x in ops)}
        linked = [{s for s, _ in nb} for nb in self._nbrs]
        for r, nb in enumerate(self._nbrs):
            for s, _ in nb:
                linked[s].add(r)
        cols = [[c[a] for c in coeffs] for a in range(l)]
        out = []
        for r, c in enumerate(coeffs):
            if r in loose:
                out.append(set(range(r, N)))
                continue
            left, right = [0] * l, [0] * l  # c^T S and S c
            for a, ca in enumerate(c):
                for b, v in near[a]:
                    left[b] += ca * v
                    right[a] += v * c[b]
            keep = {r, *(s for s in loose if s > r),
                    *(s for s in linked[r] if s > r)}
            for w in (left, right) if left != right else (left,):
                pair = [0] * (N - r)  # w . c_s over s >= r
                for a in compress(range(l), w):
                    pair = list(map(add, pair, map(w[a].__mul__,
                                                   cols[a][r:])))
                keep.update(compress(range(r, N), pair))
            out.append(keep)
        return out

    def bilinear(self, x, y, form: bool = False) -> tuple:
        """x * y from the structure, over denominator 1; forms from the rows
        (StructureAlgebra.bilinear)."""
        if form:
            return super().bilinear(x, y, True)
        x, y = self._parts(x), self._parts(y)
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
        # x_r x_s: x_g on neighbours, 2 r^2 on equal roots; the sparser
        # x block is walked, the other read from its list
        xs, yl = (x.xs, y.xl) if len(x.xs) <= len(y.xs) else (y.xs, x.xl)
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


@dataclass
class BPlusAlgebra:
    rs: RootSystem
    alg: StructureAlgebra
    sym_index: dict  # (a, b) with a <= b -> basis index
    num_sym: int
    _sq: list = None  # per positive root: alpha^2 over the S^2 basis

    @property
    def dim(self) -> int:
        return self.alg.dim


def build_bplus(rs: RootSystem) -> BPlusAlgebra:
    l, N = rs.l, rs.N
    sym_pairs, idx = _sym_pairs(l)
    sym_index = {p: i for i, p in enumerate(sym_pairs)}
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
        squares.append({idx[a][b]: c[a] * c[b] * (1 if a == b else 2)
                        for a in supp for b in supp if a <= b})

    def product(i: int) -> dict:
        if i >= ns:
            r = i - ns
            row = {ns + s: {ns + g: 1} for s, g in rs.neighbours[r]}
            row[i] = {k: 2 * v for k, v in squares[r].items()}
            row.update((idx[a][b], {i: 2 * p * q})
                       for a, p in pcol[r] for b, q in pcol[r] if a <= b)
            return row
        a, b = sym_pairs[i]
        # (ab)(cd) = (a,c)bd + (a,d)bc + (b,c)ad + (b,d)ac, collected per cd
        # from the c that are a, b or a Cartan neighbour of one.  A square cc
        # stands for both orderings of (c, d), so it takes its term twice.
        row = {}
        for x, y in ((a, b), (b, a)):
            for c in near[x]:
                for d in range(l):
                    terms = row.setdefault(idx[c][d], {})
                    k = idx[y][d]
                    terms[k] = terms.get(k, 0) + S[x][c] * (1 + (c == d))
        pa, pb = P[a], P[b]
        row.update((ns + r, {ns + r: 2 * pa[r] * pb[r]})
                   for r in pa.keys() & pb.keys())
        return row

    def form(i: int) -> dict:
        if i >= ns:
            return {i: 2}
        a, b = sym_pairs[i]
        return {idx[c][d]: S[a][c] * S[b][d] + S[a][d] * S[b][c]
                for c in near[a] for d in near[b]}

    labels = ([f"s({a},{b})" for a, b in sym_pairs]
              + [f"x({r})" for r in range(N)])
    alg = BPlusStructure(labels, *encode_rows(product, form, len(labels)),
                         rs, S, pcol, squares)
    bp = BPlusAlgebra(rs, alg, sym_index, ns, squares)
    expected = l * (l + 1) // 2 + N
    if alg.dim != expected:
        raise AssertionError("dimension l(l+1)/2 + N violated")
    return bp


@dataclass
class PhiMap:
    """Linear map from the root algebra onto the weight-2 algebra."""

    domain: RootAlgebra
    codomain: BPlusAlgebra

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
        out.update((bp.num_sym + r, 2 * v) for r, v in diffs.items() if v)
        return out

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        nums, den = a._integer_coeffs()
        return AlgebraElement(self.codomain.alg, {
            k: Q(v, 2 * den) for k, v in self.image(nums).items()})

    def rank(self) -> int:
        """Exact rank, from the 2N integer image rows 2 phi(t_r + u_r) and
        2 phi(u_r - t_r), which span the image of the basis: the first hold
        no x and the second no alpha^2, so neither fills the other's
        columns while they are eliminated."""
        N = self.domain.rs.N
        solver = SparseSolver(self.codomain.dim)
        for r in range(N):
            solver.add_equation(self.image({r: 1, N + r: 1}), 0)
            solver.add_equation(self.image({r: -1, N + r: 1}), 0)
        return solver.rank


def build_phi(ra: RootAlgebra, bp: BPlusAlgebra) -> PhiMap:
    return PhiMap(ra, bp)


# The basis pairs of roots r <= s as (sr, ss): t of r if sr < 0, else u;
# likewise for s.  4 phi(b_i) 4 phi(b_j) is the sum of P_r P_s, P_r M_s,
# M_r P_s and M_r M_s with the signs (1, ss, sr, sr ss).
_SIGNS = ((-1, -1), (-1, 1), (1, -1), (1, 1))


def _signs(sr: int, ss: int) -> tuple:
    return 1, ss, sr, sr * ss


def _basis_pair(N: int, r: int, s: int, sr: int, ss: int) -> tuple:
    return tuple(sorted((r if sr < 0 else N + r, s if ss < 0 else N + s)))


def _first_product_mismatch(phi: PhiMap, parts: list, visit: list):
    """The least basis pair (i, j) with phi(b_i) phi(b_j) != phi(b_i b_j),
    or None; parts holds (P_r, M_r) per root as operands, and visit[r] the
    roots s >= r whose products with r's the kernel may make non-zero."""
    A, B, N = phi.domain.alg, phi.codomain.alg, phi.domain.rs.N
    first = None

    def pm_equal(r, s, prods, pden) -> bool:
        """Whether the four basis pairs of roots r != s all match, checked
        on the four products instead: with E_x the entries of A for pair x
        over their lcm D, summing the pairs with the signs of product p
        gives D p = 2 pden phi~(sum of signed E_x), phi~ = 2 phi, and the
        signs are invertible.  Three of the sums hold no alpha^2 in their
        images, as their coefficients cancel per root."""
        rows = [(A._product_row(i), j)
                for i, j in (_basis_pair(N, r, s, *x) for x in _SIGNS)]
        den = math.lcm(*(d for (d, _), _ in rows))
        for t, p in enumerate(prods):
            comb: dict = {}
            for x, ((d, row), j) in zip(_SIGNS, rows):
                f = _signs(*x)[t] * (den // d)
                for k, v in row.get(j, ()):
                    comb[k] = comb.get(k, 0) + f * v
            if ({k: den * v for k, v in p.items() if v}
                    != {k: 2 * pden * v for k, v in phi.image(comb).items()}):
                return False
        return True

    for r in range(N):
        pr, mr = parts[r]
        for s in sorted(visit[r]):
            ps, ms = parts[s]
            prods = [B.bilinear(a, b) for a in (pr, mr) for b in (ps, ms)]
            pden = math.lcm(*(d for _, d in prods))
            prods = [p if d == pden else {k: v * (pden // d)
                                           for k, v in p.items()}
                     for p, d in prods]
            if r < s and pm_equal(r, s, prods, pden):
                continue
            for sr, ss in _SIGNS:
                if r == s and sr > ss:
                    continue  # the pair (t_r, u_r) is checked once
                i, j = _basis_pair(N, r, s, sr, ss)
                # diff = 16 aden pden (phi(b_i) phi(b_j) - phi(b_i b_j)),
                # with phi(b_i b_j) = image / (2 aden)
                aden, row = A._product_row(i)
                diff = {k: -8 * pden * v
                        for k, v in phi.image(dict(row.get(j, ()))).items()}
                for sign, p in zip(_signs(sr, ss), prods):
                    sign *= aden
                    for k, v in p.items():
                        diff[k] = diff.get(k, 0) + sign * v
                if any(diff.values()):
                    first = min(first or (i, j), (i, j))
    # the pairs left out: B+'s side is 0
    for i in range(2 * N):
        for j, entry in A._product_row(i)[1].items():
            r, s = sorted((i % N, j % N))
            if j >= i and s not in visit[r] and phi.image(dict(entry)):
                first = min(first or (i, j), (i, j))
    return first


def _first_form_mismatch(phi: PhiMap, parts: list):
    """The least basis pair (i, j) with <phi(b_i), phi(b_j)> != <b_i, b_j>,
    or None, over every root pair: <x, y> = G x . y / fden, with G x made
    once per operand x of a root as its non-zero (keys, values), which are
    few where S c_r is sparse, and y a dense list over the basis of B+."""
    A, B, N = phi.domain.alg, phi.codomain.alg, phi.domain.rs.N
    frows = [B._form_row(k) for k in range(B.dim)]
    fden = math.lcm(*(d for d, _ in frows))

    def gram(x: dict) -> tuple:
        out: dict = {}
        for b, c in x.items():
            d, nbrs = frows[b]
            c *= fden // d
            for a, v in nbrs.items():
                out[a] = out.get(a, 0) + c * v
        out = {a: v for a, v in out.items() if v}
        return list(out), list(out.values())

    def dense(x: dict) -> list:
        out = [0] * B.dim
        for b, c in x.items():
            out[b] = c
        return out

    first = None
    vecs = [[dense(x) for x in ops] for ops in parts]
    for r in range(N):
        grams = [gram(x) for x in parts[r]]
        for s in range(r, N):
            # <P_r, P_s>, <P_r, M_s>, <M_r, P_s>, <M_r, M_s> times fden
            forms = [sum(map(mul, vals, map(y.__getitem__, keys)))
                     for keys, vals in grams for y in vecs[s]]
            for sr, ss in _SIGNS:
                if r == s and sr > ss:
                    continue
                i, j = _basis_pair(N, r, s, sr, ss)
                aden, row = A._form_row(i)
                if (sum(map(mul, _signs(sr, ss), forms)) * aden
                        != 16 * fden * row.get(j, 0)):
                    first = min(first or (i, j), (i, j))
    return first


def verify_theorem_3_1(phi: PhiMap) -> tuple:
    """Compare, over all basis pairs i <= j, phi(b_i) phi(b_j) with
    phi(b_i b_j) and <phi(b_i), phi(b_j)> with <b_i, b_j>.  Returns
    (product_pair, form_pair, rank): the first pair (i, j) with a product
    mismatch and the first with a form mismatch, each None if there is
    none, and the exact rank of phi.

    With P_r = 2 phi(t_r + u_r) and M_r = 2 phi(u_r - t_r), 4 phi(t_r) =
    P_r - M_r and 4 phi(u_r) = P_r + M_r.  For roots r <= s the products
    and forms of the images of t_r, u_r, t_s, u_s are therefore signed sums
    of those of P_r P_s, P_r M_s, M_r P_s and M_r M_s, in integer
    numerators.  The forms are compared on every root pair, as sparse dots
    with the Gram vectors of P_r and M_r.  The products are taken by B+'s
    kernel on operands kept per root (B.operand), on the root pairs that
    BPlusStructure.coupled keeps.  On every other pair each term of the
    kernel is 0, because both roots' operands are rank one over their own
    roots, orthogonal under the kernel's Cartan matrix and not neighbours
    (see coupled); there a basis pair fails when A's row holds an entry
    whose image is not 0.  A codomain without the kernel keeps every pair.
    The other side is read from the compiled rows of the domain, mapped by
    phi.image, and the two are compared by cross-multiplying the
    denominators.  Root pairs are not visited in the order of the basis
    pairs (i, j), so the first mismatch of each kind is the least pair
    found.
    """
    B, N = phi.codomain.alg, phi.domain.rs.N
    parts = [(B.operand(phi.image({r: 1, N + r: 1})),
              B.operand(phi.image({r: -1, N + r: 1}))) for r in range(N)]
    visit = (B.coupled(parts) if isinstance(B, BPlusStructure)
             else [set(range(r, N)) for r in range(N)])
    return (_first_product_mismatch(phi, parts, visit),
            _first_form_mismatch(phi, parts), phi.rank())
