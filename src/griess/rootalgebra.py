"""The commutative algebras attached to a simply-laced root system.

A(Phi) has basis t(alpha), u(alpha) over the positive roots; T(Phi) is the
t-span.  Products of distinct basis vectors vanish for orthogonal roots and
close via the unique third root of a non-orthogonal pair; squares scale by
8.  The bilinear form pairs equal letters at 4 on the diagonal and any pair
of letters at 1/2 on non-orthogonal distinct roots, except that t and u of
the same root pair to 0.

The identity decomposes along a nested chain of sub-root-systems per
component into pairwise-orthogonal idempotents: along the A_(l-1) path of
simple roots the charges are the discrete series values 1 - 6/((i+2)(i+3)),
and the complement of the component has the parafermion value 2l/(h+2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .algebra import AlgebraElement, DecompositionReport, StructureAlgebra
from .ratio import Q
from .rootsys import RootSystem

@dataclass
class RootAlgebra:
    rs: RootSystem
    alg: StructureAlgebra
    t_only: bool


def _make_algebra(rs: RootSystem, t_only: bool) -> StructureAlgebra:
    """A(Phi), or its t-span T(Phi), with its product and form tables built
    together over the neighbour lists: basis t-block 0..N-1, then u-block
    N..2N-1.  Products are over denominator 1 and the form over 2, so 1/2
    is the numerator 1.

    Both tables are built on the first read of either, so an algebra whose
    rows are never read builds none.  The build visits the pairs i <= j
    with a non-zero product in lexicographic order and stores each pair's
    entry in row i at j and in row j at i: the two rows share one entry,
    and every row gets its j in increasing order."""
    N, nbrs = rs.N, rs.neighbours
    dim = N if t_only else 2 * N

    @functools.cache
    def table() -> tuple[list, list]:
        # the terms (k, 1) and (k, -1), shared by every entry that has them
        plus = [(k, 1) for k in range(dim)]
        minus = [(k, -1) for k in range(dim)]
        prods: list[dict] = [{} for _ in range(dim)]
        forms: list[dict] = [{} for _ in range(dim)]
        for i in range(dim):
            r, u = (i - N, N) if i >= N else (i, 0)
            prods[i][i], forms[i][i] = ((i, 8),), 8
            # the j > i: t(s), s > r, and every u(s) for i = t(r); u(s),
            # s > r, for i = u(r).  t*t and u*u close on t(gamma), mixed
            # pairs on u(gamma)
            pairs = [(s + u, g) for s, g in nbrs[r] if s > r]
            if not (u or t_only):
                pairs += [(s + N, g + N) for s, g in nbrs[r]]
            for j, c in pairs:
                # b_i + b_j - b_c, its terms in k order
                prods[i][j] = prods[j][i] = (
                    (plus[i], plus[j], minus[c]) if c > j else
                    (plus[i], minus[c], plus[j]) if c > i else
                    (minus[c], plus[i], plus[j]))
                forms[i][j] = forms[j][i] = 1
        return prods, forms

    labels = [f"t({i})" for i in range(N)]
    if not t_only:
        labels += [f"u({i})" for i in range(N)]
    return StructureAlgebra(labels, lambda: (1, table()[0]),
                            lambda: (2, table()[1]))


def build_A(rs: RootSystem) -> RootAlgebra:
    """The rank-2N algebra on generators t(alpha), u(alpha)."""
    return RootAlgebra(rs, _make_algebra(rs, t_only=False), t_only=False)


def build_T(rs: RootSystem) -> RootAlgebra:
    """The t-span subalgebra, of dimension N."""
    return RootAlgebra(rs, _make_algebra(rs, t_only=True), t_only=True)


def connected_parts(rs: RootSystem, simple: frozenset) -> list:
    """The connected parts of the diagram on the simple roots simple, as
    (simple roots, positive roots) each, kept in rs.parts: a root's support
    is connected, and each edge a - b is the root a + b, so merging supports
    finds them."""
    if simple not in rs.parts:
        roots = _sub_positive_roots(rs, simple)
        comp = {a: {a} for a in simple}  # simple root -> its part, shared
        for r in roots:
            a, *rest = rs.supports[r]
            for b in rest:
                if comp[b] is not comp[a]:
                    comp[a] |= comp[b]
                    comp.update(dict.fromkeys(comp[b], comp[a]))
        parts: dict = {}  # id of a part -> (its simple roots, its roots)
        for r in roots:
            s = comp[min(rs.supports[r])]
            parts.setdefault(id(s), (s, []))[1].append(r)
        rs.parts[simple] = list(parts.values())
    return rs.parts[simple]


def _closed_identity(ra: RootAlgebra, simple: Iterable[int],
                     with_u: bool = False) -> AlgebraElement:
    """Closed-form identity of the t-span of the sub-system on the simple
    roots: 1/(2h+4) on each t(alpha) of each connected part of its
    diagram, h = 2|Phi+|/rank; with_u, that of the algebra, 1/(4h) on each
    t(alpha) and u(alpha)."""
    if with_u and ra.t_only:
        raise ValueError("delta lives in the full algebra, not T(Phi)")
    rs = ra.rs
    coeffs = {}
    for s, rts in connected_parts(rs, frozenset(simple)):
        # 1/(4h) = rank/(8|Phi+|) and 1/(2h+4) = rank/(4(|Phi+| + rank))
        c = (Q(len(s), 8 * len(rts)) if with_u
             else Q(len(s), 4 * (len(rts) + len(s))))
        for r in rts:
            coeffs[r] = c
            if with_u:
                coeffs[rs.N + r] = c
    return AlgebraElement(ra.alg, coeffs)


def delta(ra: RootAlgebra) -> AlgebraElement:
    """Closed-form identity of A(Phi): coefficient 1/(4h) on every t and u."""
    return _closed_identity(ra, range(ra.rs.l), with_u=True)


def epsilon(ra: RootAlgebra) -> AlgebraElement:
    """Closed-form identity of T(Phi): coefficient 1/(2h+4) on every t.

    Direct expansion gives t(b) * sum t(a) = (2h+4) t(b), so 1/(2h+4) is the
    unique normalization making this an identity of the t-span (it coincides
    with 1/(4h) only for h=2).
    """
    return _closed_identity(ra, range(ra.rs.l))


def _sub_positive_roots(rs: RootSystem, simple_indices: frozenset) -> list[int]:
    """Positive roots supported on the given global simple-root indices."""
    return [r for r, s in enumerate(rs.supports) if s <= simple_indices]


def _telescope(ra: RootAlgebra, chain: list, simple: Iterable[int],
               ) -> tuple[list, AlgebraElement, list]:
    """The idempotents of one block, S_1 c ... c S_m under delta_c, A's
    identity on the simple roots simple: with eps_k the closed identity of
    T on S_k, and eps_0 = 0, (eps_1..eps_m, delta_c, the e_k = eps_k -
    eps_(k-1) and the tail delta_c - eps_m, zeros left out)."""
    eps = [_closed_identity(ra, s) for s in chain]
    top = _closed_identity(ra, simple, with_u=True)
    diffs = [b - a for a, b in zip([ra.alg.zero(), *eps], [*eps, top])]
    return eps, top, [e for e in diffs if not e.is_zero()]


def _chain_decompose(ra: RootAlgebra, blocks: list, desc: str,
                     ) -> DecompositionReport:
    """The idempotents of _telescope per block (chain, simple roots of
    delta_c) and their charges 8 <e, e>, with (chain, eps_1..eps_m,
    delta_c, Gram matrix) per block, from which verify certifies them."""
    idems, charges, built = [], [], []
    for chain, simple in blocks:
        eps, top, mine = _telescope(ra, chain, simple)
        gram = ra.alg.form_matrix(mine)
        idems += mine
        charges += [8 * gram[i][i] for i in range(len(mine))]
        built.append((chain, eps, top, gram))
    return DecompositionReport(idems, charges, desc, blocks=built)


def default_chains(rs: RootSystem) -> list[list[frozenset]]:
    """Per component, the nested simple-root sets of its default chain.

    The chain grows along the component's A_(l-1) path of simple roots,
    all of A_l for type A, local roots 0..l-2 for D_l and 0, 2, 3, ..., l-1
    for E_l (Bourbaki order); D and E then add the whole component."""
    out = []
    for sl, comp in zip(rs.component_simple_slices, rs.components):
        path = {"A": sl, "D": sl[:-1], "E": [sl[0], *sl[2:]]}[comp.family]
        chain = [frozenset(path[:i]) for i in range(1, len(path) + 1)]
        out.append(chain if comp.family == "A" else chain + [frozenset(sl)])
    return out


def chain_idempotents(ra: RootAlgebra) -> list[AlgebraElement]:
    """The idempotents of coset_chain_decompose, without their charges."""
    return [e for chain in default_chains(ra.rs)
            for e in _telescope(ra, chain, chain[-1])[2]]


def coset_chain_decompose(ra: RootAlgebra) -> DecompositionReport:
    """Decompose the identity along the default chain of every component.

    Per component of rank l, one block of l+1 idempotents: the telescoping
    differences of the t-span identities along the chain, plus the final
    complement inside the identity on the chain's last set, the whole
    component.  verify's thm2.7 judges the idempotents and their charges.
    """
    descs = []
    for comp in ra.rs.components:
        steps = f"A_1 c ... c A_{comp.rank}"
        if comp.family != "A":
            steps = f"A_1 c ... c A_{comp.rank - 1} c {comp}"
        descs.append(f"{comp}: {steps} chain + complement")
    return _chain_decompose(ra, [(c, c[-1]) for c in default_chains(ra.rs)],
                            "; ".join(descs))


def out_of_range(indices, l: int) -> str | None:
    """The first simple-root index out of range for rank l, described."""
    bad = next((i for i in indices if not 0 <= i < l), None)
    return None if bad is None else (
        f"index {bad}, out of range for rank {l} (0 to {l - 1})")


def generalized_chain_decompose(ra: RootAlgebra,
                                chain: list[list[int]]) -> DecompositionReport:
    """Decompose along a user-supplied nested chain of simple-root subsets,
    one block with identity delta, with its charges; verify certifies it."""
    rs = ra.rs
    sets = [frozenset(s) for s in chain]
    for a, b in zip(sets, sets[1:]):
        if not a <= b:
            raise ValueError("chain subsets must be nested")
    if error := out_of_range([i for s in chain for i in s], rs.l):
        raise ValueError(error)
    desc = "chain " + " c ".join("{" + ",".join(map(str, sorted(s))) + "}"
                                 for s in sets)
    return _chain_decompose(ra, [(sets, range(rs.l))], desc)
