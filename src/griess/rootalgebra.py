"""The commutative algebras attached to a simply-laced root system.

A(Phi) has basis t(alpha), u(alpha) over the positive roots; T(Phi) is the
t-span.  Products of distinct basis vectors vanish for orthogonal roots and
close via the unique third root of a non-orthogonal pair; squares scale by
8.  The bilinear form pairs equal letters at 4 on the diagonal and any pair
of letters at 1/2 on non-orthogonal distinct roots, except that t and u of
the same root pair to 0.

The identity decomposes along a nested chain of sub-root-systems into
pairwise-orthogonal idempotents whose charges, for type A, are the discrete
series values 1 - 6/((i+2)(i+3)) plus the parafermion value 2l/(l+3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, DecompositionReport, StructureAlgebra
from .ratio import Q
from .rootsys import RootSystem

HALF = Q(1, 2)


@dataclass
class RootAlgebra:
    rs: RootSystem
    alg: StructureAlgebra
    t_only: bool

    @property
    def dim(self) -> int:
        return self.alg.dim

    def t(self, i: int) -> AlgebraElement:
        return self.alg.basis_element(i)

    def u(self, i: int) -> AlgebraElement:
        if self.t_only:
            raise ValueError("T(Phi) has no u-block")
        return self.alg.basis_element(self.rs.N + i)


def _make_algebra(rs: RootSystem, t_only: bool) -> StructureAlgebra:
    """A(Phi), or its t-span T(Phi), with rows read from the neighbour
    lists: basis t-block 0..N-1, then u-block N..2N-1."""
    N, nbrs = rs.N, rs.neighbours

    def product(i: int) -> dict:
        r, u = i % N, N if i >= N else 0
        row = {i: {i: 8}}
        for s, g in nbrs[r]:
            # t*t and u*u close on t(gamma), mixed pairs on u(gamma)
            row[s] = {i: 1, s: 1, g + u: -1}
            if not t_only:
                row[s + N] = {i: 1, s + N: 1, g + N - u: -1}
        return row

    def form(i: int) -> dict:
        row = {i: 4}
        for s, _ in nbrs[i % N]:
            row[s] = HALF
            if not t_only:
                row[s + N] = HALF
        return row

    labels = [f"t({i})" for i in range(N)]
    if not t_only:
        labels += [f"u({i})" for i in range(N)]
    return StructureAlgebra(labels, product, form)


def build_A(rs: RootSystem) -> RootAlgebra:
    """The rank-2N algebra on generators t(alpha), u(alpha)."""
    return RootAlgebra(rs, _make_algebra(rs, t_only=False), t_only=False)


def build_T(rs: RootSystem) -> RootAlgebra:
    """The t-span subalgebra, of dimension N."""
    return RootAlgebra(rs, _make_algebra(rs, t_only=True), t_only=True)


def delta(ra: RootAlgebra) -> AlgebraElement:
    """Closed-form identity of A(Phi): coefficient 1/(4h) on every t and u."""
    if ra.t_only:
        raise ValueError("delta lives in the full algebra, not T(Phi)")
    rs = ra.rs
    coeffs = {}
    for ci, sl in enumerate(rs.component_root_slices):
        c = Q(1, 4 * rs.h_per_component[ci])
        for i in sl:
            coeffs[i] = c
            coeffs[rs.N + i] = c
    return ra.alg.element(coeffs)


def epsilon(ra: RootAlgebra) -> AlgebraElement:
    """Closed-form identity of T(Phi): coefficient 1/(2h+4) on every t.

    Direct expansion gives t(b) * sum t(a) = (2h+4) t(b), so 1/(2h+4) is the
    unique normalization making this an identity of the t-span (it coincides
    with 1/(4h) only for h=2).
    """
    rs = ra.rs
    coeffs = {}
    for ci, sl in enumerate(rs.component_root_slices):
        c = Q(1, 2 * rs.h_per_component[ci] + 4)
        for i in sl:
            coeffs[i] = c
    return ra.alg.element(coeffs)


def _component_delta(ra: RootAlgebra, ci: int) -> AlgebraElement:
    rs = ra.rs
    c = Q(1, 4 * rs.h_per_component[ci])
    coeffs = {}
    for i in rs.component_root_slices[ci]:
        coeffs[i] = c
        coeffs[rs.N + i] = c
    return ra.alg.element(coeffs)


def _sub_positive_roots(rs: RootSystem, simple_indices: frozenset) -> list[int]:
    """Positive roots supported on the given global simple-root indices."""
    out = []
    for i, coeffs in enumerate(rs.simple_coeffs):
        if all(c == 0 or k in simple_indices for k, c in enumerate(coeffs)):
            out.append(i)
    return out


def _sub_t_identity(ra: RootAlgebra, root_indices: list[int]) -> AlgebraElement:
    """Identity of the t-span of a closed sub-root-system, by exact solve."""
    if not root_indices:
        return ra.alg.zero()
    pos = {r: k for k, r in enumerate(root_indices)}
    nbrs = ra.rs.neighbours

    def product(k: int) -> dict:
        row = {k: {k: 8}}
        for s, g in nbrs[root_indices[k]]:
            if s in pos:
                if g not in pos:
                    raise ValueError("simple-root subset does not define a "
                                     "closed sub-system")
                row[pos[s]] = {k: 1, pos[s]: 1, pos[g]: -1}
        return row

    sub = StructureAlgebra([str(r) for r in root_indices], product,
                           lambda k: {})
    ident = sub.find_identity()
    if ident is None:
        raise ValueError("sub-system t-span has no identity")
    return ra.alg.element({root_indices[k]: c for k, c in ident.coeffs.items()})


def _verify_decomposition(ra: RootAlgebra, idems: list[AlgebraElement],
                          total: AlgebraElement) -> dict:
    checks = {}
    s = ra.alg.zero()
    for e in idems:
        s = s + e
    checks["sum_to_identity"] = (s == total)
    ok_idem = all(e.is_idempotent() for e in idems)
    ok_prod = all((idems[i] * idems[j]).is_zero()
                  for i in range(len(idems)) for j in range(i + 1, len(idems)))
    checks["pairwise_products"] = ok_idem and ok_prod
    checks["pairwise_form"] = all(
        idems[i].form(idems[j]) == 0
        for i in range(len(idems)) for j in range(i + 1, len(idems)))
    return checks


def coset_chain_decompose(ra: RootAlgebra) -> DecompositionReport:
    """Decompose the identity along the canonical type-A chains.

    Per component of rank l this yields l+1 idempotents: the telescoping
    differences of the t-span identities of the nested sub-systems on the
    first i simple roots, plus the final complement inside the component
    identity.  Charges are asserted against the discrete-series and
    parafermion closed forms.
    """
    if ra.t_only:
        raise ValueError("decomposition runs in the full algebra")
    rs = ra.rs
    if any(c.family != "A" for c in rs.components):
        raise ValueError("coset chain decomposition requires all components of type A")
    idems: list[AlgebraElement] = []
    charges = []
    descs = []
    for ci, comp in enumerate(rs.components):
        l = comp.rank
        simple_sl = rs.component_simple_slices[ci]
        prev = ra.alg.zero()
        for i in range(1, l + 1):
            sub = _sub_positive_roots(
                rs, frozenset(list(simple_sl)[:i]))
            # chain sub-system A_i has Coxeter number i+1; its t-span
            # identity has coefficient 1/(2h+4) = 1/(2i+6)
            eps_i = ra.alg.element({r: Q(1, 2 * i + 6) for r in sub})
            e = eps_i - prev
            c = e.central_charge()
            expected = 1 - Q(6, (i + 2) * (i + 3))
            if c != expected:
                raise AssertionError(
                    f"chain charge mismatch at step {i}: {c} != {expected}")
            idems.append(e)
            charges.append(c)
            prev = eps_i
        tail = _component_delta(ra, ci) - prev
        c = tail.central_charge()
        if c != Q(2 * l, l + 3):
            raise AssertionError(f"parafermion charge mismatch: {c}")
        idems.append(tail)
        charges.append(c)
        descs.append(f"{comp}: A_1 c ... c A_{l} chain + complement")
    checks = _verify_decomposition(ra, idems, delta(ra))
    if not all(checks.values()):
        raise AssertionError(f"decomposition checks failed: {checks}")
    return DecompositionReport(idems, charges, "; ".join(descs), checks)


def generalized_chain_decompose(ra: RootAlgebra,
                                chain: list[list[int]]) -> DecompositionReport:
    """Decompose along a user-supplied nested chain of simple-root subsets.

    Orthogonality and idempotency are verified exactly; charges are
    reported but not asserted against any closed form.
    """
    if ra.t_only:
        raise ValueError("decomposition runs in the full algebra")
    rs = ra.rs
    sets = [frozenset(s) for s in chain]
    for a, b in zip(sets, sets[1:]):
        if not a <= b:
            raise ValueError("chain subsets must be nested")
    if any(i < 0 or i >= rs.l for s in sets for i in s):
        raise ValueError("simple-root index out of range")
    idems = []
    prev = ra.alg.zero()
    for s in sets:
        if not s:
            continue
        eps_s = _sub_t_identity(ra, _sub_positive_roots(rs, s))
        e = eps_s - prev
        if not e.is_zero():
            idems.append(e)
        prev = eps_s
    tail = delta(ra) - prev
    if not tail.is_zero():
        idems.append(tail)
    checks = _verify_decomposition(ra, idems, delta(ra))
    if not (checks["sum_to_identity"] and checks["pairwise_products"]
            and checks["pairwise_form"]):
        raise AssertionError(f"generalized chain failed exact checks: {checks}")
    charges = [e.central_charge() for e in idems]
    desc = "chain " + " c ".join("{" + ",".join(map(str, sorted(s))) + "}"
                                 for s in sets)
    return DecompositionReport(idems, charges, desc, checks)
