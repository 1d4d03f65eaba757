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

The linear map from the root algebra sends t(alpha) to alpha^2/2 - x_alpha
and u(alpha) to alpha^2/2 + x_alpha; it is a surjective isometric algebra
homomorphism, bijective exactly in type A, with kernel equal to the
radical of the form on the root algebra otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .algebra import AlgebraElement, StructureAlgebra
from .exactlin import QMatrix, SparseSolver
from .ratio import Q, ZERO
from .rootalgebra import RootAlgebra
from .rootsys import RootSystem, doubled


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
    sym_pairs = [(a, b) for a in range(l) for b in range(a, l)]
    sym_index = {p: i for i, p in enumerate(sym_pairs)}
    ns = len(sym_pairs)
    idx = [[sym_index[min(a, b), max(a, b)] for b in range(l)]
           for a in range(l)]

    # Cartan matrix of the simple roots, from the doubled coordinates
    simple = [doubled(a) for a in rs.simple_roots]
    S = [[sum(map(mul, x, y)) // 4 for y in simple] for x in simple]
    near = [[c for c in range(l) if S[a][c]] for a in range(l)]
    # P[a] = {r: (alpha_a, r)} over the positive roots r where it is not 0
    P: list[dict] = [{} for _ in range(l)]
    squares: list[dict] = []  # alpha^2 of each positive root over S^2
    for r, c in enumerate(rs.simple_coeffs):
        supp = [b for b in range(l) if c[b]]
        for a in range(l):
            if p := sum(S[a][b] * c[b] for b in supp):
                P[a][r] = p
        squares.append({idx[a][b]: c[a] * c[b] * (1 if a == b else 2)
                        for a in supp for b in supp if a <= b})

    def product(i: int) -> dict:
        if i >= ns:
            r = i - ns
            row = {ns + s: {ns + g: 1} for s, g in rs.neighbours[r]}
            row[i] = {k: 2 * v for k, v in squares[r].items()}
            pairings = [(a, Pa[r]) for a, Pa in enumerate(P) if r in Pa]
            row.update((idx[a][b], {i: 2 * p * q})
                       for a, p in pairings for b, q in pairings if a <= b)
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
    alg = StructureAlgebra(labels, product, form)
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
        """Exact rank, from the 2N integer image rows 2 phi(b_i)."""
        solver = SparseSolver(self.codomain.dim)
        for i in range(self.domain.dim):
            solver.add_equation(self.image({i: 1}), 0)
        return solver.rank

    def matrix(self) -> QMatrix:
        """Columns are the images of the domain basis."""
        cols = [self.image({i: 1}) for i in range(self.domain.dim)]
        return QMatrix([[Q(c[k], 2) if k in c else ZERO for c in cols]
                        for k in range(self.codomain.dim)])

    def kernel_basis(self) -> list[list]:
        return self.matrix().kernel_basis()


def build_phi(ra: RootAlgebra, bp: BPlusAlgebra) -> PhiMap:
    return PhiMap(ra, bp)


@dataclass
class Theorem31Report:
    homomorphism: bool
    isometry: bool
    surjective: bool
    kernel_dim: int
    first_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.homomorphism and self.isometry and self.surjective


def verify_theorem_3_1(phi: PhiMap) -> Theorem31Report:
    """Check, over all basis pairs i <= j, that phi(b_i) phi(b_j) =
    phi(b_i b_j) and <phi(b_i), phi(b_j)> = <b_i, b_j>, and that the map is
    onto; report the kernel dimension.

    With P_r = 2 phi(t_r + u_r) and M_r = 2 phi(u_r - t_r), 4 phi(t_r) =
    P_r - M_r and 4 phi(u_r) = P_r + M_r.  For roots r <= s the products
    and forms of the images of t_r, u_r, t_s, u_s are therefore signed sums
    of those of P_r P_s, P_r M_s, M_r P_s and M_r M_s, each computed once
    per root pair in integer numerators.  The other side is read from the
    compiled rows of the domain, its product mapped by phi.image, and the
    two are compared by cross-multiplying the denominators.  The first
    failure is the first in the order of the pairs (i, j), a product
    mismatch before a form mismatch at the same pair.
    """
    ra, B = phi.domain, phi.codomain.alg
    A, N = ra.alg, ra.rs.N
    n = A.dim
    parts = [(phi.image({r: 1, N + r: 1}), phi.image({r: -1, N + r: 1}))
             for r in range(N)]
    hom = iso = True
    first = (n, n, 0)  # (i, j, 0 for a product or 1 for a form mismatch)
    for r in range(N):
        pr, mr = parts[r]
        for s in range(r, N):
            ps, ms = parts[s]
            pairs = [(a, b) for a in (pr, mr) for b in (ps, ms)]
            prods = [B.bilinear(a, b) for a, b in pairs]
            forms = [B.bilinear(a, b, True) for a, b in pairs]
            # phi(b_i) phi(b_j) = sum of the signed prods over 16 pden
            pden = math.lcm(*(d for _, d in prods))
            prods = [p if d == pden else {k: v * (pden // d)
                                           for k, v in p.items()}
                     for p, d in prods]
            fden = math.lcm(*(d for _, d in forms))
            forms = [f * (fden // d) for f, d in forms]
            for sr, ss in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
                if r == s and sr > ss:
                    continue  # the pair (t_r, u_r) is checked once
                i, j = sorted((r if sr < 0 else N + r, s if ss < 0 else N + s))
                signs = (1, ss, sr, sr * ss)
                got = dict(prods[0])
                for sign, p in zip(signs[1:], prods[1:]):
                    for k, v in p.items():
                        got[k] = got.get(k, 0) + sign * v
                # phi(b_i b_j) = want / (2 aden)
                aden, row = A._product_row(i)
                want = phi.image(dict(row.get(j, ())))
                if any(v * aden != 8 * pden * want.pop(k, 0)
                       for k, v in got.items() if v) or want:
                    hom = False
                    first = min(first, (i, j, 0))
                aden, row = A._form_row(i)
                if (sum(map(mul, signs, forms)) * aden
                        != 16 * fden * row.get(j, 0)):
                    iso = False
                    first = min(first, (i, j, 1))
    failure = None
    if first[0] < n:
        i, j, kind = first
        what = ("product", "form")[kind]
        failure = f"{what} mismatch at basis pair ({i},{j})"
    rank = phi.rank()
    surj = (rank == phi.codomain.dim)
    if not surj:
        failure = failure or f"rank {rank} < dim {phi.codomain.dim}"
    return Theorem31Report(hom, iso, surj, n - rank, failure)
