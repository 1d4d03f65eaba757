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

from dataclasses import dataclass
from operator import mul

from .algebra import AlgebraElement, StructureAlgebra
from .exactlin import QMatrix
from .ratio import ONE, Q, ZERO
from .rootalgebra import RootAlgebra
from .rootsys import RootSystem, doubled

HALF = Q(1, 2)


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

    def x(self, root_index: int) -> AlgebraElement:
        return self.alg.basis_element(self.num_sym + root_index)

    def root_square(self, root_index: int) -> AlgebraElement:
        return self.alg.element(self._root_square_coeffs(root_index))

    def _root_square_coeffs(self, root_index: int) -> dict:
        return dict(self._sq[root_index])


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

    def image_of_basis(self, i: int) -> AlgebraElement:
        bp = self.codomain
        N = bp.rs.N
        r = i if i < N else i - N
        sign = -ONE if i < N else ONE
        coeffs = {k: HALF * v for k, v in bp._root_square_coeffs(r).items()}
        coeffs[bp.num_sym + r] = coeffs.get(bp.num_sym + r, ZERO) + sign
        return bp.alg.element(coeffs)

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        """c t(alpha) + d u(alpha) maps to (c + d)/2 alpha^2 + (d - c) x_alpha;
        the images are summed per root, in integer numerators."""
        bp, N = self.codomain, self.codomain.rs.N
        nums, den = a._integer_coeffs()
        sums, diffs = {}, {}  # per root: numerators of c + d and d - c
        for i, c in nums.items():
            r = i % N
            sums[r] = sums.get(r, 0) + c
            diffs[r] = diffs.get(r, 0) + (c if i >= N else -c)
        out: dict = {}
        for r, c in sums.items():
            if c:
                for k, v in bp._sq[r].items():
                    out[k] = out.get(k, 0) + c * v
        coeffs = {k: Q(v, 2 * den) for k, v in out.items() if v}
        coeffs.update((bp.num_sym + r, Q(v, den))
                      for r, v in diffs.items() if v)
        return AlgebraElement(bp.alg, coeffs)

    def matrix(self) -> QMatrix:
        """Columns are the images of the domain basis."""
        cols = []
        for i in range(self.domain.dim):
            img = self.image_of_basis(i)
            cols.append([img.coeffs.get(k, ZERO)
                         for k in range(self.codomain.dim)])
        return QMatrix(list(zip(*cols)))

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
    """Check, over all basis pairs, that the map is a surjective isometric
    algebra homomorphism; report the kernel dimension."""
    ra, bp = phi.domain, phi.codomain
    n = ra.dim
    images = [phi.image_of_basis(i) for i in range(n)]
    hom = iso = True
    failure = None
    for i in range(n):
        for j in range(i, n):
            lhs = phi.apply(ra.alg.basis_element(i) * ra.alg.basis_element(j))
            rhs = images[i] * images[j]
            if lhs != rhs:
                hom = False
                failure = failure or f"product mismatch at basis pair ({i},{j})"
            if images[i].form(images[j]) != ra.alg.basis_form(i, j):
                iso = False
                failure = failure or f"form mismatch at basis pair ({i},{j})"
    rank = phi.matrix().rank()
    surj = (rank == bp.dim)
    if not surj:
        failure = failure or f"rank {rank} < dim {bp.dim}"
    return Theorem31Report(hom, iso, surj, n - rank, failure)
