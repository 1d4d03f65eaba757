"""Simply-laced root systems (A, D, E) and their direct sums.

Coordinate models: A_l lives in Q^(l+1) with roots e_i - e_j; D_l in Q^l
with roots +-e_i +- e_j; E_8 uses the even coordinate model (half-integer
coordinates kept as exact rationals); E_7 and E_6 are the sub-systems of
E_8 spanned by the first 7 / 6 Bourbaki simple roots.  Components of a
direct sum occupy orthogonal ambient blocks.

Positive roots are ordered component-major, then lexicographically by
coefficient vector in the simple-root basis.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass

from .ratio import Q, ZERO

Root = tuple  # tuple of rationals in the ambient space

COXETER = {"A": lambda l: l + 1, "D": lambda l: 2 * l - 2,
           "E": lambda l: {6: 12, 7: 18, 8: 30}[l]}


@dataclass(frozen=True)
class SimpleType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family == "A":
            ok = self.rank >= 1
        elif self.family == "D":
            ok = self.rank >= 4
        elif self.family == "E":
            ok = self.rank in (6, 7, 8)
        else:
            ok = False
        if not ok:
            raise ValueError(f"invalid simple type {self.family}{self.rank}")

    @property
    def coxeter(self) -> int:
        return COXETER[self.family](self.rank)

    @property
    def num_positive(self) -> int:
        return self.rank * self.coxeter // 2

    def __str__(self):
        return f"{self.family}{self.rank}"


def dot(x: Root, y: Root):
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(x, y)), ZERO)


def _e(n: int, i: int, c=1) -> list:
    v = [ZERO] * n
    v[i] = Q(c)
    return v


def _simple_roots_A(l: int) -> list[Root]:
    n = l + 1
    return [tuple(Q(a) - Q(b) for a, b in zip(_e(n, i), _e(n, i + 1)))
            for i in range(l)]


def _positive_roots_A(l: int) -> list[Root]:
    n = l + 1
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            v = _e(n, i)
            v[j] = Q(-1)
            out.append(tuple(v))
    return out


def _simple_roots_D(l: int) -> list[Root]:
    out = []
    for i in range(l - 1):
        v = _e(l, i)
        v[i + 1] = Q(-1)
        out.append(tuple(v))
    v = _e(l, l - 2)
    v[l - 1] = Q(1)
    out.append(tuple(v))
    return out


def _positive_roots_D(l: int) -> list[Root]:
    out = []
    for i in range(l):
        for j in range(i + 1, l):
            for sj in (-1, 1):
                v = _e(l, i)
                v[j] = Q(sj)
                out.append(tuple(v))
    return out


def _all_roots_E8() -> list[Root]:
    roots = set()
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (-1, 1):
                for sj in (-1, 1):
                    v = [ZERO] * 8
                    v[i], v[j] = Q(si), Q(sj)
                    roots.add(tuple(v))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.add(tuple(Q(s, 2) for s in signs))
    return sorted(roots)


def _simple_roots_E8() -> list[Root]:
    # Bourbaki labeling in the even coordinate model.
    a1 = tuple(Q(c, 2) for c in (1, -1, -1, -1, -1, -1, -1, 1))
    a2 = tuple(Q(c) for c in (1, 1, 0, 0, 0, 0, 0, 0))
    rest = []
    for i in range(3, 9):
        v = _e(8, i - 2)
        v[i - 3] = Q(-1)
        rest.append(tuple(v))
    return [a1, a2] + rest


def doubled(r: Root) -> tuple[int, ...]:
    """2r, which has integer coordinates in every model (E8 included)."""
    return tuple(int(2 * c) for c in r)


def _positive_with_coeffs(simple: list[Root], roots: list[Root],
                          ) -> list[tuple[tuple[int, ...], Root]]:
    """(coefficients over simple, root) for each positive root of the
    sub-system that the simple roots generate inside roots, sorted by
    coefficient vector.

    Every positive root of height > 1 is a positive root plus a simple
    root, so a search from the simple roots that adds one simple root at a
    time reaches each positive root, with its integer coefficients.
    """
    known = {doubled(r): r for r in roots}
    steps = [doubled(a) for a in simple]
    found = {a: tuple(int(k == m) for m in range(len(steps)))
             for k, a in enumerate(steps)}
    frontier = list(found)
    while frontier:
        nxt = []
        for r in frontier:
            c = found[r]
            for k, a in enumerate(steps):
                s = tuple(map(operator.add, r, a))
                if s in known and s not in found:
                    found[s] = c[:k] + (c[k] + 1,) + c[k + 1:]
                    nxt.append(s)
        frontier = nxt
    return sorted((c, known[r]) for r, c in found.items())


class RootSystem:
    """A (semi)simple simply-laced root system with canonical indexing."""

    def __init__(self, components: list[SimpleType]):
        if not components:
            raise ValueError("at least one component required")
        self.components = list(components)
        self.positive_roots: list[Root] = []
        self.simple_roots: list[Root] = []
        self.h_per_component = [c.coxeter for c in components]
        # per positive root: component index and coefficient vector over the
        # global simple-root list (integers; zero outside the component)
        self.component_of: list[int] = []
        self.simple_coeffs: list[tuple[int, ...]] = []
        self.component_root_slices: list[range] = []
        self.component_simple_slices: list[range] = []

        ambients = []
        for ci, comp in enumerate(components):
            if comp.family == "A":
                simple = _simple_roots_A(comp.rank)
                roots = _positive_roots_A(comp.rank)
            elif comp.family == "D":
                simple = _simple_roots_D(comp.rank)
                roots = _positive_roots_D(comp.rank)
            else:
                simple = _simple_roots_E8()[:comp.rank]
                roots = _all_roots_E8()
            decorated = _positive_with_coeffs(simple, roots)
            ambients.append((ci, simple, decorated))

        dims = [len(simple[0]) for _, simple, _ in ambients]
        total_dim = sum(dims)
        offset = 0
        simple_offset = 0
        root_offset = 0
        for (ci, simple, decorated), d in zip(ambients, dims):
            def embed(r):
                return tuple([ZERO] * offset + list(r)
                             + [ZERO] * (total_dim - offset - d))

            comp_rank = len(simple)
            self.component_simple_slices.append(
                range(simple_offset, simple_offset + comp_rank))
            self.simple_roots.extend(embed(r) for r in simple)
            self.component_root_slices.append(
                range(root_offset, root_offset + len(decorated)))
            for coeffs, r in decorated:
                full = ([0] * simple_offset + list(coeffs)
                        + [0] * 0)  # padded below
                self.positive_roots.append(embed(r))
                self.component_of.append(ci)
                self.simple_coeffs.append(tuple(full))
            offset += d
            simple_offset += comp_rank
            root_offset += len(decorated)
        self.l = sum(c.rank for c in components)
        # right-pad coefficient vectors to the global rank
        self.simple_coeffs = [t + (0,) * (self.l - len(t))
                              for t in self.simple_coeffs]
        self.N = len(self.positive_roots)
        self._index = {r: i for i, r in enumerate(self.positive_roots)}
        # Doubled coordinates are integers (the E8 half-integers included),
        # so norms, dot products and root sums need no rational arithmetic.
        roots = [doubled(r) for r in self.positive_roots]
        self._check_invariants(roots)
        self._build_relations(roots)

    # -- relations ---------------------------------------------------------

    def _build_relations(self, roots: list[tuple[int, ...]]):
        n = self.N
        self.rel = [bytearray(n) for _ in range(n)]  # 0 same, 1 ~, 2 perp
        self.gamma: dict[tuple[int, int], int] = {}
        # per root i: [(j, gamma(i, j))] over its Delta_1, sorted by j
        self.neighbours: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        index = {}  # +-2r -> index of the positive root r
        for i, r in enumerate(roots):
            index[r] = index[tuple(-c for c in r)] = i
        for i in range(n):
            ri, rel_i = roots[i], self.rel[i]
            for j in range(i + 1, n):
                rj = roots[j]
                d = sum(map(operator.mul, ri, rj))  # 4 (r_i, r_j)
                if d == 0:
                    rel_i[j] = self.rel[j][i] = 2
                    continue
                rel_i[j] = self.rel[j][i] = 1
                # (r_i, r_j) = +-1 makes r_i -+ r_j a root
                op = operator.sub if d > 0 else operator.add
                g = index.get(tuple(map(op, ri, rj)))
                assert g is not None, "triple closure violated"
                self.gamma[(i, j)] = self.gamma[(j, i)] = g
                self.neighbours[i].append((j, g))
                self.neighbours[j].append((i, g))

    def _check_invariants(self, roots: list[tuple[int, ...]]):
        """Construction invariants; |Delta_1| = 2h-4 is a verify clause."""
        if any(sum(c * c for c in r) != 8 for r in roots):  # (2r, 2r) = 8
            raise AssertionError("root of squared length != 2")
        for sl, comp in zip(self.component_root_slices, self.components):
            if 2 * len(sl) != comp.rank * comp.coxeter:
                raise AssertionError("2N = lh violated")

    @functools.cached_property
    def supports(self) -> list[frozenset]:
        """Per positive root: the simple roots with a non-zero coefficient."""
        return [frozenset(k for k, c in enumerate(co) if c)
                for co in self.simple_coeffs]

    # -- queries -----------------------------------------------------------

    def index_of(self, alpha: Root) -> int:
        try:
            return self._index[tuple(alpha)]
        except KeyError:
            raise ValueError("not a positive root of this system") from None

    def inner(self, i: int, j: int):
        return dot(self.positive_roots[i], self.positive_roots[j])

    def spec_string(self) -> str:
        parts = []
        for t, group in itertools.groupby(self.components):
            n = len(list(group))
            parts.append(str(t) if n == 1 else f"{t}^{n}")
        return "+".join(parts)

    def __repr__(self):
        return f"RootSystem({self.spec_string()}, N={self.N})"


_COMP_RE = re.compile(r"^([ADE])(\d+)(?:[\^*](\d+))?$")


def spec_parts(spec: str) -> list[tuple[SimpleType, int]]:
    """(simple type, multiplicity) per part of a spec, with no part
    expanded, so a huge multiplicity costs nothing."""
    out = []
    for part in spec.replace(" ", "").split("+"):
        m = _COMP_RE.match(part)
        if not m:
            raise ValueError(f"cannot parse root system spec {part!r}")
        out.append((SimpleType(m.group(1), int(m.group(2))),
                    int(m.group(3) or 1)))
    return out


def parse_spec(spec: str) -> list[SimpleType]:
    """Parse a component spec like "A2", "D4", "A1^24" or "A2*12+E6"."""
    return [t for t, mult in spec_parts(spec) for _ in range(mult)]


def build(components: list[SimpleType] | str) -> RootSystem:
    if isinstance(components, str):
        components = parse_spec(components)
    return RootSystem(components)
