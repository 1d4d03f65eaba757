"""The 24 even unimodular rank-24 lattice types and their counting layer.

Covers: the catalog (components, common Coxeter number, masses), the
associative subalgebras of dimension 24+k obtained by pushing the chain
idempotents into the weight-2 algebra, the isotropic-extension product
formula with a brute-force check on small plus-type quadratic spaces over
GF(2), and the consistency identities for the two data tables.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

from .algebra import DecompositionReport
from .bplus import PhiMap, build_bplus
from .exactlin import f2_span
from .ratio import Q, ZERO, q_parse, q_str
from .rootalgebra import build_A, chain_idempotents
from .rootsys import RootSystem, parse_spec

CO1_ORDER = 2**21 * 3**9 * 5**4 * 7**2 * 11 * 13 * 23
BRUTE_FORCE_MAX_DIM = 10


@dataclass(frozen=True)
class NiemeierEntry:
    name: str
    components: tuple  # SimpleType, with multiplicity
    mass: object  # rational

    @property
    def is_leech(self) -> bool:
        return not self.components

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def coxeter(self) -> int | None:
        return self.components[0].coxeter if self.components else None

    @property
    def count(self) -> int:
        """Number of rescaled copies inside the Leech lattice."""
        c = self.mass * CO1_ORDER
        if c.denominator != 1:
            raise ValueError(f"{self.name}: mass x |Co1| = {q_str(c)} is "
                             "not an integer")
        return int(c)

    def root_system(self) -> RootSystem:
        if self.is_leech:
            raise ValueError("the Leech entry has an empty root system")
        return RootSystem(list(self.components))


def _data(name: str) -> dict:
    with resources.files("griess.data").joinpath(name).open() as f:
        return json.load(f)


@functools.cache
def _catalog() -> dict[str, NiemeierEntry]:
    """All 24 entries by name, read and verified once per process."""
    entries = {}
    for raw in _data("niemeier.json")["entries"]:
        comps = tuple(t for spec in raw["components"] for t in parse_spec(spec))
        e = entries[raw["name"]] = NiemeierEntry(raw["name"], comps,
                                                 q_parse(raw["mass"]))
        if comps:
            if sum(t.rank for t in comps) != 24:
                raise ValueError(f"{e.name}: component ranks must sum to 24")
            if len({t.coxeter for t in comps}) != 1:
                raise ValueError(f"{e.name}: Coxeter numbers must agree")
    if len(entries) != 24:
        raise ValueError("catalog must have 24 entries")
    return entries


def catalog() -> list[NiemeierEntry]:
    """All 24 entries, with rank/Coxeter invariants verified at load."""
    return list(_catalog().values())


def catalog_entry(name: str) -> NiemeierEntry:
    if (e := _catalog().get(name)) is None:
        raise ValueError(f"{name!r} is not a catalog entry name; "
                         "see `griess niemeier list`")
    return e


def lemma_4_2_subalgebra(entry: NiemeierEntry) -> DecompositionReport:
    """chain_image_subalgebra on the root system of a non-Leech entry."""
    rs = entry.root_system()
    return chain_image_subalgebra(PhiMap(build_A(rs), build_bplus(rs)),
                                  entry.name)


def chain_image_subalgebra(phi: PhiMap, name: str) -> DecompositionReport:
    """The images in the weight-2 algebra of the default chain idempotents,
    l+1 per component of rank l, with their charges.  checks holds the
    number of non-zero images, the dimension of their span, and whether
    they are pairwise orthogonal idempotents, e_i e_j = [i = j] e_i, so
    that the span is associative: first_idempotent_failure, one packed
    product per non-zero image, with no table of B+ built.  On a failure,
    "pair" holds the first failing pair of image indices, for verify's
    lemma4.2.  chain_idempotents reads no table of A(Phi)."""
    images = [phi.apply(e) for e in chain_idempotents(phi.domain)]
    nonzero = [k for k, e in enumerate(images) if not e.is_zero()]
    pair = phi.codomain.first_idempotent_failure([images[k] for k in nonzero])
    checks = {"dimension": len(nonzero), "associative": pair is None}
    if pair is not None:
        checks["pair"] = tuple(nonzero[k] for k in pair)
    charges = [e.central_charge() for e in images]
    return DecompositionReport(
        images, charges, f"{name}: images in the weight-2 algebra", checks)


# -- quadratic spaces over GF(2) ------------------------------------------


@dataclass(frozen=True)
class F2QuadSpace:
    """Plus-type quadratic space of even dimension 2m over GF(2).

    Hyperbolic basis: q(x) = sum over i of x_{2i} x_{2i+1} (mod 2).
    """

    dim: int

    def __post_init__(self):
        if self.dim % 2 or self.dim <= 0:
            raise ValueError("dimension must be even and positive")

    @property
    def witt_index(self) -> int:
        return self.dim // 2

    def q(self, v: int) -> int:
        total = 0
        for i in range(self.witt_index):
            total ^= (v >> (2 * i)) & (v >> (2 * i + 1)) & 1
        return total


def lagrangian_extension_count(n: int) -> int:
    """Extensions of a codimension-n isotropic subspace to a maximal one:
    the product of 2^i + 1 for i < n (empty product = 1)."""
    if n < 0:
        raise ValueError("codimension must be non-negative")
    out = 1
    for i in range(n):
        out *= 2**i + 1
    return out


def _translate(mask: int, w: int, halves: list[int]) -> int:
    """{x ^ w : x in mask}, for sets of vectors kept as bitmasks over the
    vectors: bit x is set iff x is a member.  halves[i] marks the vectors
    with bit i clear; each bit i of w swaps them with their partners."""
    for i, low in enumerate(halves):
        if w >> i & 1:
            s = 1 << i
            mask = (mask & low) << s | (mask >> s) & low
    return mask


def brute_force_lagrangians(space: F2QuadSpace) -> int:
    """Count maximal totally singular subspaces by exhaustive enumeration.

    Each subspace is produced once, as its reduced echelon basis over the
    leading (highest) bits, by adding rows in increasing pivot order: the
    next row v has its leading bit p above every pivot so far and a 0 at
    each of them.  The earlier rows have no bit at p, so the basis stays
    reduced with no row operations.  A subspace has one reduced basis, and
    dropping its last row gives the one parent that generates it, so no
    subspace is reached twice and no set of seen subspaces is kept.  Rows
    whose pivot leaves too few bits above it for the rows still missing
    are not tried.

    q is evaluated once per vector, from its definition, into a table.
    The candidates for the next row form one bitmask over the vectors: at
    the start the non-zero singular ones, narrowed on each row v to perp[v].
    For a singular w, the only kind of row, perp[w] holds the v with
    q(v+w) - q(v) - q(w) = q(v+w) - q(v) = 0: the vectors outside the
    symmetric difference of the q table's bitmask of non-singular vectors
    and its translate by w.  The polar form is taken from q itself, not
    from a bilinear formula, so the count tests the q it is given.  A q that is not quadratic can pass
    the polar test pairwise on a basis whose span holds a non-singular
    vector, so every vector of each maximal subspace is re-checked: a
    non-singular one raises ValueError, naming it and the subspace's basis
    in binary.
    """
    if space.dim > BRUTE_FORCE_MAX_DIM:
        raise ValueError(
            f"brute force limited to dimension {BRUTE_FORCE_MAX_DIM}")
    dim, m = space.dim, space.witt_index
    n = 1 << dim
    q = [space.q(v) for v in range(n)]
    everything = (1 << n) - 1
    halves = [sum(((1 << (1 << i)) - 1) << k for k in range(0, n, 2 << i))
              for i in range(dim)]
    nonsingular = sum(1 << v for v in range(n) if q[v])
    perp = [everything ^ _translate(nonsingular, w, halves) ^ nonsingular
            for w in range(n)]
    # beyond[p]: the vectors with bit p clear and leading bit above p
    beyond = [halves[p] & ~((1 << (2 << p)) - 1) for p in range(dim)]

    def extend(basis: tuple[int, ...], candidates: int) -> int:
        if len(basis) == m:
            bad = next((x for x in f2_span(basis) if q[x]), None)
            if bad is not None:
                raise ValueError(
                    f"non-singular vector {bad:0{dim}b} in the span of "
                    + ", ".join(f"{b:0{dim}b}" for b in basis))
            return 1
        # the next pivot leaves room above it for the rows after it
        todo = candidates & (1 << (1 << (dim - m + len(basis) + 1))) - 1
        total = 0
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            total += extend(basis + (v,),
                            candidates & perp[v] & beyond[v.bit_length() - 1])
        return total

    return extend((), everything ^ nonsingular ^ 1)


# -- table consistency -----------------------------------------------------


def table1_consistency() -> list[tuple]:
    """Clauses (description, ok, detail): each mass times |Co1| is a
    positive integer and the counts sum to the number of maximal totally
    isotropic subspaces in dimension 24."""
    clauses = []
    total = 0
    for e in catalog():
        c = e.mass * CO1_ORDER
        ok = c.denominator == 1 and c > 0
        clauses.append((f"{e.name}: mass x |Co1| is a positive integer", ok,
                        q_str(c)))
        if ok:
            total += int(c)
    expected = lagrangian_extension_count(12)
    clauses.append(("sum of counts equals the total Lagrangian count",
                    total == expected, f"{total} vs {expected}"))
    return clauses


@dataclass(frozen=True)
class Table2Row:
    symbol: str
    dim: int
    stabilizer_order: int
    edges: tuple  # (extensions, containments, child_symbol)


def table2_rows() -> list[Table2Row]:
    return [Table2Row(r["symbol"], r["dim"], int(r["stabilizer_order"]),
                      tuple((int(x), int(y), c) for x, y, c in r["edges"]))
            for r in _data("table2.json")["rows"]]


def table2_consistency(rows: list[Table2Row] | None = None) -> list[tuple]:
    """Clauses (description, ok, detail) of the double-counting identity
    per edge: with N(X) = |Co1| / stab(X), N(parent) x containments =
    N(child) x extensions."""
    clauses = []
    rows = table2_rows() if rows is None else rows
    orbit: dict[str, object] = {}
    for r in rows:
        n = Q(CO1_ORDER, r.stabilizer_order)
        if n.denominator != 1:
            clauses.append((f"{r.symbol}: stabilizer order divides |Co1|",
                            False, q_str(n)))
            continue
        orbit[r.symbol] = n
    anchor = orbit.get("A_1")
    clauses.append(("anchor: N(A_1) = 98280", anchor == 98280,
                    q_str(anchor or ZERO)))
    for r in rows:
        if r.symbol not in orbit:
            continue
        for ext, cont, child in r.edges:
            if child not in orbit:
                clauses.append((f"edge {r.symbol} -> {child}: child order "
                                "missing", False, "skipped"))
                continue
            lhs = orbit[r.symbol] * cont
            rhs = orbit[child] * ext
            clauses.append((f"edge {r.symbol} contains {cont} x {child} "
                            f"(extends {ext})", lhs == rhs,
                            f"{q_str(lhs)} vs {q_str(rhs)}"))
    return clauses
