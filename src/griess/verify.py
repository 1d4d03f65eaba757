"""Named verification targets with uniform pass/fail reporting.

Each target re-derives a claimed identity from scratch on a chosen root
system and records one clause per checked statement.  Clauses carry the
first counterexample when they fail; a report passes iff every clause
does.

A spec target is a clause writer fn(system, report) in WRITERS; the three
spec-free targets take the max dimension in place of the system.  A System
holds what the targets and the CLI build from one spec, to be judged only
here: it resolves a catalog name, runs the size guard before anything is
built, and builds the root system, A(Phi), T(Phi), B+, phi, the default
chains and their images in B+ each once, on first use, and thm2.7's and
thm3.1's checks once: cor3.2 cites thm3.1, lemma2.5 cites thm2.7, and
lemma2.6 reads the System's chain.  That is an order of verification; the
paper proves 2.7 from 2.5 and 2.6.  A target run alone pays for what it
cites.  report alone creates, names and times a report.  `all` makes one
System per spec for every target run on it, so a report's elapsed time
leaves out what an earlier target on the same spec built.  Every charge
claim reads closed_charges: thm2.7 and lemma4.2 per idempotent, lemma2.6
per idempotent but each block's tail, and lemma2.4 and eq2.5 on the chain
of all simple roots.

Verification checks and does not construct: no target runs a solver.
prop2.2 and lemma2.3 certify the closed forms delta and epsilon by their
action on every basis vector, an identity being unique; thm3.1 and cor3.2
read phi's rank counted from the root data, and thm2.7 and lemma4.2
certify their idempotents.  The library's exact identity solve stays as
the independent reference of the tests and the benchmark.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field

from .bplus import PhiMap, build_bplus, verify_theorem_3_1
from .niemeier import (BRUTE_FORCE_MAX_DIM, catalog, catalog_entry,
                       F2QuadSpace, brute_force_lagrangians,
                       chain_image_subalgebra, lagrangian_extension_count,
                       table1_consistency, table2_consistency)
from .ratio import Q, ZERO, q_str
from .rootalgebra import (build_A, build_T, connected_parts,
                          coset_chain_decompose, default_chains, delta,
                          epsilon, _sub_positive_roots)
from .rootsys import SimpleType, build, spec_parts

DEFAULT_SPECS = ("A1", "A2", "A3", "D4", "E6", "A1^24", "A2^12", "A24")

SIZE_GUARD = 1600  # specs with 2N beyond this need an explicit override

SPEC_FREE = ("formula4.1", "table1", "table2")


@dataclass
class VerifyReport:
    target: str
    clauses: list = field(default_factory=list)  # (description, ok, detail)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.clauses)

    def add(self, description: str, ok: bool, detail: str | None = None):
        self.clauses.append((description, bool(ok), detail))

    def to_json(self) -> dict:
        return {"target": self.target, "passed": self.passed,
                "elapsed": round(self.elapsed, 3),
                "clauses": [{"description": d, "passed": ok,
                             "counterexample": detail if not ok else None}
                            for d, ok, detail in self.clauses]}

    def format_text(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.target} "
                 f"({len(self.clauses)} clauses, {self.elapsed:.2f}s)"]
        for d, ok, detail in self.clauses:
            mark = "ok  " if ok else "FAIL"
            suffix = f"  [{detail}]" if (detail and not ok) else ""
            lines.append(f"  {mark} {d}{suffix}")
        return "\n".join(lines)


@functools.cache
def _catalog_specs() -> dict:
    return {e.name: "+".join(map(str, e.components))
            for e in catalog() if not e.is_leech}


def resolve(spec: str) -> str:
    """The spec of a non-Leech catalog name, such as A5^4+D4 for A5^4D4,
    which is no spec; any other string but Leech is taken as a spec."""
    if spec == "Leech":
        raise ValueError("the Leech entry carries no root-system subalgebra")
    return _catalog_specs().get(spec, spec)


def _two_n(spec: str) -> int:
    """2N = sum of l h over the components, building and listing none."""
    return 2 * sum(t.num_positive * mult
                   for t, mult in spec_parts(resolve(spec)))


def check_size(spec: str, force: bool):
    """Refuse a spec with 2N beyond the guard, before anything is built."""
    two_n = _two_n(spec)
    if two_n > SIZE_GUARD and not force:
        raise ValueError(
            f"system has 2N = {two_n} > {SIZE_GUARD} basis vectors; "
            "pass --force to run anyway")


def check_max_dim(max_dim: int):
    """Refuse a max dimension the GF(2) brute force cannot take."""
    if max_dim < 0:
        raise ValueError(f"max dimension {max_dim} is negative")
    if max_dim > BRUTE_FORCE_MAX_DIM:
        raise ValueError(f"max dimension {max_dim} > {BRUTE_FORCE_MAX_DIM}, "
                         "the limit of the GF(2) brute force")


class System:
    """The objects of one spec, or catalog name, and the checks that other
    targets cite, each made once on first use; the size guard runs when the
    System is made, before any build."""

    def __init__(self, spec: str, force: bool = False):
        self.name = spec
        check_size(spec, force)

    @functools.cached_property
    def rs(self):
        return build(resolve(self.name))

    @functools.cached_property
    def A(self):
        return build_A(self.rs)

    @functools.cached_property
    def T(self):
        return build_T(self.rs)

    @functools.cached_property
    def bplus(self):
        return build_bplus(self.rs)

    @functools.cached_property
    def phi(self):
        return PhiMap(self.A, self.bplus)

    @functools.cached_property
    def thm31(self):
        """verify_theorem_3_1 on phi, which thm3.1 and cor3.2 read."""
        return verify_theorem_3_1(self.phi)

    @functools.cached_property
    def chain(self):
        """The default chains' decomposition of A's identity, or a caller's."""
        return coset_chain_decompose(self.A)

    @functools.cached_property
    def thm27(self) -> list:
        """thm2.7's clauses on the chain (a caller's is set before this is
        read): charges, certify_chain's four, the sum; lemma2.5 cites them."""
        rep, rs, dec = VerifyReport("thm2.7"), self.rs, self.chain
        chains = [chain for chain, *_ in dec.blocks]
        if chains == default_chains(rs):
            want, note = _default_steps(rs, chains), _extends(rs.components)
        else:
            want = closed_charges(rs, chains[0], rs.l)
            note = " (extends the paper's statement to any nested chain)"
        _add_charges_clause(rep, want, dec.idempotents, dec.charges, note)
        certify_chain(rep, self.A, dec)
        total = sum(dec.charges, ZERO)
        rep.add(f"charges sum to c(delta) = l = {rs.l}", total == rs.l,
                q_str(total))
        return rep.clauses

    @functools.cached_property
    def images(self):
        """Lemma 4.2's images in B+ of a catalog name's chains."""
        return chain_image_subalgebra(self.phi, self.name)


def _all_type_a(components: list[SimpleType]) -> bool:
    return all(c.family == "A" for c in components)


def _extends(components: list[SimpleType]) -> str:
    """What a Section 2 clause adds to its text where a D or E component
    takes part: the paper states the claim in type A only."""
    return ("" if _all_type_a(components)
            else " (extends the paper's type-A statement to D and E)")


def _lemma_2_1(s: System, rep: VerifyReport):
    """|Delta_1(alpha)| = 2h - 4 for every positive root, read from the
    neighbour lists of the root system."""
    rs = s.rs
    for ci, comp in enumerate(rs.components):
        h = comp.coxeter
        sl = rs.component_root_slices[ci]
        bad = next((f"root {i}: |Delta_1| = {len(rs.neighbours[i])} != "
                    f"{2 * h - 4}" for i in sl
                    if len(rs.neighbours[i]) != 2 * h - 4), None)
        rep.add(f"component {comp}: |Delta_1(alpha)| = 2h-4 = {2 * h - 4} "
                f"for all {len(sl)} roots", bad is None, bad)


def _add_identity_clause(rep: VerifyReport, alg, x, name: str, of: str):
    """One clause: x, the closed form called name, fixes every basis vector
    of alg, called of, so it is alg's identity, as an identity is unique; a
    failure names the first basis vector that x does not fix, by its index
    and its label."""
    j = alg.first_unfixed_basis(x)
    rep.add(f"{name} fixes every basis vector of {of}, so it is {of}'s "
            "identity (an identity is unique)", j is None,
            None if j is None else
            f"basis vector {j} ({alg.basis_labels[j]}) is not fixed")


def _prop_2_2(s: System, rep: VerifyReport):
    """The closed-form delta is the identity of A(Phi)."""
    _add_identity_clause(rep, s.A.alg, delta(s.A),
                         "delta (1/(4h) per component)", "A")


def _lemma_2_3(s: System, rep: VerifyReport):
    """The closed-form epsilon is the identity of T(Phi), the t-span."""
    _add_identity_clause(rep, s.T.alg, epsilon(s.T),
                         "epsilon (1/(2h+4) per component)", "T")


def closed_charges(rs, chain: list, rank: int, where: str = "chain") -> list:
    """(closed charge, "where, step k") per non-zero idempotent of a block
    S_1 c ... c S_m under an identity on rank simple roots.  c(S) = c(eps_S)
    is Lemma 2.4's sum of lh/(h+2) = l n/(l+n), n = |Phi+|, over the parts
    of S.  Step k has c(S_k) - c(S_(k-1)), c(S_0) = 0, dropped if S_k =
    S_(k-1), as its idempotent is 0; the tail, step m+1, rank - c(S_m)."""
    sets = [frozenset(), *map(frozenset, chain)]
    c = [ZERO, *(sum((Q(len(p) * len(r), len(p) + len(r))
                      for p, r in connected_parts(rs, s)), ZERO)
                 for s in sets[1:]), rank]
    return [(c[k] - c[k - 1], f"{where}, step {k}") for k in range(1, len(c))
            if k == len(sets) or sets[k] != sets[k - 1]]


def _default_steps(rs, chains: list) -> list:
    """closed_charges along the default chains given, one per component."""
    return [step for ci, (comp, chain) in enumerate(zip(rs.components, chains))
            for step in closed_charges(rs, chain, comp.rank,
                                       f"component {ci} {comp}")]


def _lemma_2_4(s: System, rep: VerifyReport):
    """c(delta) = l and c(epsilon) = lh/(h+2), summed over components."""
    rs = s.rs
    cd = delta(s.A).central_charge()
    rep.add(f"c(delta) = l = {rs.l}", cd == rs.l, q_str(cd))
    ce = epsilon(s.T).central_charge()
    expected, _ = closed_charges(rs, [range(rs.l)], rs.l)[0]
    rep.add(f"c(epsilon) = sum of lh/(h+2) = {q_str(expected)}",
            ce == expected, q_str(ce))


def _eq_2_5(s: System, rep: VerifyReport):
    """c(delta - epsilon) = 2l/(h+2) summed over the components, the tail
    of the chain {all simple roots}: the paper's 2l/(l+3) in type A."""
    rs = s.rs
    c = (delta(s.A) - epsilon(s.A)).central_charge()
    expected, _ = closed_charges(rs, [range(rs.l)], rs.l)[-1]
    rep.add(f"c(delta - epsilon) = sum of 2l/(h+2) = {q_str(expected)}"
            + _extends(rs.components), c == expected, q_str(c))


def _add_charges_clause(rep: VerifyReport, want: list, elements: list,
                        charges: list, note: str = "", ks=None):
    """One clause: a chain decomposition's charges at the indices ks, all
    by default, equal want, their closed forms; a failure names a wrong
    count of idempotents, or the first idempotent that differs, with its
    block and its step."""
    ks = range(len(charges)) if ks is None else ks
    if len(charges) != len(want):
        bad = f"{len(charges)} idempotents, expected {len(want)}"
    else:
        bad = next((f"idempotent {k} ({want[k][1]})"
                    f"{' is zero' if elements[k].is_zero() else ''}: "
                    f"charge {q_str(charges[k])} != {q_str(want[k][0])}"
                    for k in ks if charges[k] != want[k][0]), None)
    rep.add(f"charges match the closed forms "
            f"({', '.join(q_str(charges[k]) for k in ks[:6])}"
            f"{', ...' if len(ks) > 6 else ''}){note}", bad is None, bad)


def _lemma_2_5(s: System, rep: VerifyReport):
    """eps_i eps_(i-1) = eps_(i-1) and <eps_i - eps_(i-1), eps_(i-1)> = 0
    along each default chain, each cited from a clause of thm2.7's
    certificate on the System's chain, whose detail a failure carries."""
    cited = {d: (ok, detail) for d, ok, detail in s.thm27}
    note = _extends(s.rs.components)
    for claim, why, clause in [
            ("eps_i eps_(i-1) = eps_(i-1)", "eps_i fixes T(Phi_i), which "
             "holds eps_(i-1)", "pairwise products"),
            ("<eps_i - eps_(i-1), eps_(i-1)> = 0", "it is the sum of "
             "<e_i, e_j> over j < i, and each block's Gram matrix is "
             "diagonal", "pairwise form")]:
        ok, detail = cited[clause]
        rep.add(f"{claim} along each chain: {why} (thm2.7's {clause})"
                + note, ok, None if ok else f"thm2.7: {detail}")


def _lemma_2_6(s: System, rep: VerifyReport):
    """c(eps_i - eps_(i-1)) along each default chain, read from the
    System's chain: closed_charges' steps but each block's tail, 1 -
    6/((i+2)(i+3)) on the path, then D's or E's."""
    rs, dec = s.rs, s.chain
    ends = set(itertools.accumulate(len(gram) for *_, gram in dec.blocks))
    ks = [k for k in range(len(dec.charges)) if k + 1 not in ends]
    _add_charges_clause(rep, _default_steps(rs, default_chains(rs)),
                        dec.idempotents, dec.charges, ", each block's tail "
                        "left out" + _extends(rs.components), ks)


def certify_chain(rep: VerifyReport, ra, dec):
    """Four clauses certify a chain decomposition of A(Phi) from its
    blocks, B = supp delta_c the basis of one.  pairwise products: (a)
    eps_k t(alpha) = t(alpha) for alpha in Phi_k, eps_k in T(Phi_k) and
    span B; (b) delta_c b = b for b in B; (c) no product or form row
    leaves its block, blocks are disjoint.  pairwise form: (c), and each
    block's Gram matrix is diagonal.  Why e_i e_j = [i = j] e_i: Phi_k is
    closed, so T(Phi_k) is a subalgebra, with identity eps_k by (a).
    Identities are unique, so eps_k^2 = eps_k and eps_j eps_k = eps_j for
    j <= k, as T(Phi_j) c T(Phi_k); by (b) this holds with eps_(m+1) =
    delta_c.  For j < k, e_j e_k = eps_j - eps_j - eps_(j-1) + eps_(j-1) =
    0 and e_k^2 = eps_k - 2 eps_(k-1) + eps_(k-1) = e_k; by (c) elements
    of different blocks multiply and pair to 0.  Each check reads one
    sparse row per basis vector instead of one dense product per pair."""
    alg, bad, seen, first = ra.alg, {}, set(), 0  # bad: first failures
    for c, (chain, eps, top, gram) in enumerate(dec.blocks):
        block = top.coeffs.keys()
        if seen & block or any(not alg.neighbours(b) <= block for b in block):
            bad = {**dict.fromkeys(("products", "form"), f"block {c} is not "
                                   "closed, or meets an earlier block"), **bad}
        seen |= block
        for name, x, fixed in [("delta_c", top, block)] + [
                (f"eps_{k}", e, _sub_positive_roots(ra.rs, s))
                for k, (s, e) in enumerate(zip(chain, eps), 1)]:
            if not x.coeffs.keys() <= block & set(fixed):
                bad.setdefault("products",
                               f"block {c}: {name} leaves the span it fixes")
            elif (j := alg.first_unfixed_basis(x, fixed)) is not None:
                b = alg.basis_labels[j]
                bad.setdefault("products", f"block {c}: {name} * {b} != {b}")
        i, j = next(((i, j) for i in range(len(gram)) for j in range(i)
                     if gram[i][j]), (0, 0))
        if i:  # a pair has j < i, so i > 0
            bad.setdefault("form", f"<e_{first + j}, e_{first + i}> = "
                                   f"{q_str(gram[i][j])}")
        first += len(gram)
    total, d = sum(dec.idempotents, alg.zero()), delta(ra)
    rep.add("sum to identity", total == d,
            None if total == d else f"sum - delta = {total - d!r}")
    rep.add("pairwise products", "products" not in bad, bad.get("products"))
    rep.add("pairwise form", "form" not in bad, bad.get("form"))
    n = len(dec.idempotents)  # all non-zero
    rep.add(f"span of the {n} idempotents is associative (by the pairwise "
            f"products e_i e_j = [i = j] e_i it is Q^{n})",
            "products" not in bad, bad.get("products"))


def _thm_3_1(s: System, rep: VerifyReport):
    """The map onto the weight-2 algebra: homomorphism, isometry, onto."""
    product_pair, form_pair, rank = s.thm31
    rep.add("algebra homomorphism on all basis pairs", product_pair is None,
            product_pair and "product mismatch at basis pair (%d,%d)"
            % product_pair)
    rep.add("isometry on all basis pairs", form_pair is None,
            form_pair and "form mismatch at basis pair (%d,%d)" % form_pair)
    dim, why = s.phi.codomain.dim, s.phi.uncounted
    rep.add("surjective (exact rank equals target dimension)", rank == dim,
            why or f"rank {rank} < dim {dim}")
    rep.add(f"kernel dimension = 2N - dim = {2 * s.rs.N - dim}",
            rank == dim, why or str(2 * s.rs.N - rank))


def _not_positive_definite(S: list) -> str | None:
    """The first entry where the integer matrix S is not symmetric, or the
    first leading minor that is not positive, or None (Sylvester).  The
    k-th pivot of row i = p row i - f row k, pivot p > 0, has the sign of
    minor k / minor k-1; a row with f = 0 is skipped, as on a direct sum."""
    n = len(S)
    for a in range(n):
        for b in range(a):
            if S[a][b] != S[b][a]:
                return f"S[{b}][{a}] = {S[b][a]} != S[{a}][{b}] = {S[a][b]}"
    m = [list(row) for row in S]
    for k, top in enumerate(m):
        if (p := top[k]) <= 0:
            return f"leading minor {k + 1} of S is {'0' if p == 0 else '< 0'}"
        for row in m[k + 1:]:
            if f := row[k]:
                row[k:] = [p * v - f * t for v, t in zip(row[k:], top[k:])]
    return None


def _cor_3_2(s: System, rep: VerifyReport):
    """Type A: bijective.  Otherwise: kernel = radical of the source form.

    phi is an isometry (thm3.1 on the System), so the kernel lies in the
    radical.  B+'s form is positive definite when the Cartan matrix S that
    its kernel reads is, so a radical vector v, with <phi v, phi v> =
    <v, v> = 0, maps to 0: the radical lies in the kernel."""
    phi, N, rank, why = s.phi, s.rs.N, s.phi.rank, s.phi.uncounted
    if _all_type_a(s.rs.components):
        rep.add(f"bijective: rank {'?' if why else rank} = 2N = dim target",
                rank == 2 * N == phi.codomain.dim,
                why or f"rank {rank}, 2N {2 * N}, dim {phi.codomain.dim}")
        return
    bad = _not_positive_definite(phi.codomain.cartan)
    rep.add("B+'s form is positive definite: the Cartan matrix S is "
            "symmetric with positive leading minors", bad is None, bad)
    form_pair = s.thm31[1]
    rep.add(f"kernel = radical, of dimension 2N - rank = "
            f"{'?' if why else 2 * N - rank}, by thm3.1's isometry",
            form_pair is None and not why, why or form_pair and (
                "thm3.1: form mismatch at basis pair (%d,%d)" % form_pair))


def _lemma_4_2(s: System, rep: VerifyReport):
    """Associative subalgebra of dimension 24+k for a rank-24 entry, on
    the System's phi: the non-zero images count 24+k, their charges are
    the closed forms, and they are pairwise orthogonal idempotents, which
    makes them independent and their span Q^n; a failing pair is named by
    both its idempotents, each with its component and step."""
    entry = catalog_entry(s.name)
    sub, steps = s.images, _default_steps(s.rs, default_chains(s.rs))
    dim = sub.checks["dimension"]
    rep.add(f"dimension 24 + k = {24 + entry.k}", dim == 24 + entry.k,
            f"{dim} non-zero images")
    _add_charges_clause(rep, steps, sub.idempotents, sub.charges)
    bad = None
    if "pair" in sub.checks:
        i, j = sub.checks["pair"]
        name = [f"idempotent {k} ({steps[k][1]})" for k in (i, j)]
        want = f"idempotent {i}" if i == j else "0"
        bad = f"{name[0]} times {name[1]} is not {want}"
    rep.add("span is associative (e_i e_j = [i = j] e_i, so it is Q^n)",
            sub.checks["associative"], bad)


def _formula_4_1(max_dim: int, rep: VerifyReport):
    """Brute-force Lagrangian counts against the product formula."""
    check_max_dim(max_dim)
    rep.add("empty product convention: count(0) = 1",
            lagrangian_extension_count(0) == 1)
    for dim in range(2, max_dim + 1, 2):
        got = brute_force_lagrangians(F2QuadSpace(dim))
        want = lagrangian_extension_count(dim // 2)
        rep.add(f"dim {dim}: brute force {got} = formula {want}", got == want)


WRITERS = {
    "lemma2.1": _lemma_2_1, "prop2.2": _prop_2_2, "lemma2.3": _lemma_2_3,
    "lemma2.4": _lemma_2_4, "eq2.5": _eq_2_5, "lemma2.5": _lemma_2_5,
    "lemma2.6": _lemma_2_6, "thm2.7": lambda s, r: r.clauses.extend(s.thm27),
    "thm3.1": _thm_3_1, "cor3.2": _cor_3_2, "lemma4.2": _lemma_4_2,
    "formula4.1": _formula_4_1,
    "table1": lambda _, rep: rep.clauses.extend(table1_consistency()),
    "table2": lambda _, rep: rep.clauses.extend(table2_consistency()),
}

TARGETS = (*WRITERS, "all")


def targets_for_spec(spec: str) -> list[str]:
    """Verification targets applicable to one root-system spec."""
    out = ["lemma2.1", "prop2.2", "lemma2.3", "lemma2.4", "eq2.5",
           "lemma2.5", "lemma2.6", "thm2.7"]
    # On a direct sum thm3.1 and cor3.2's type-A clause check that phi is
    # onto B+(Phi), which fails: no t or u maps onto h_c h_c'.  2N <= 160
    # until that is checked per component.
    if _two_n(spec) <= 160:
        out += ["thm3.1", "cor3.2"]
    if spec in _catalog_specs():
        out.append("lemma4.2")
    return out


def report(target: str, arg) -> VerifyReport:
    """target's report on arg, a System, or max_dim for SPEC_FREE, timed."""
    rep = VerifyReport(target if target in SPEC_FREE
                       else f"{target} [{arg.name}]")
    t0 = time.perf_counter()
    WRITERS[target](arg, rep)
    rep.elapsed = time.perf_counter() - t0
    return rep


def run_target(target: str, spec: str | None = None, *,
               max_dim: int = 8, force: bool = False) -> list[VerifyReport]:
    """Run one named target; 'all' runs the applicable ones on each spec
    (default: DEFAULT_SPECS), on one System per spec, then SPEC_FREE."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; choose from {TARGETS}")
    if target in SPEC_FREE:
        if spec is not None:
            raise ValueError(f"target {target} takes no root-system spec")
        return [report(target, max_dim)]
    if target != "all":
        if spec is None:
            raise ValueError(f"target {target} needs a root-system spec")
        return [report(target, System(spec, force))]
    check_max_dim(max_dim)
    reports = []
    for s in [spec] if spec else DEFAULT_SPECS:
        system = System(s, force)
        reports += [report(t, system) for t in targets_for_spec(s)]
    return reports + [report(t, max_dim) for t in SPEC_FREE]
