"""Simply-laced root systems (A, D, E) and their direct sums.

Coordinates are doubled: a root r is stored as the integer tuple 2r, which
covers the half-integer coordinates of E_8 too, so a build does no rational
arithmetic.  Coordinate models: A_l lives in Z^(l+1) with roots e_i - e_j;
D_l in Z^l with roots +-e_i +- e_j; E_8 uses the even coordinate model; E_7
and E_6 are the sub-systems of E_8 spanned by the first 7 / 6 Bourbaki
simple roots.  Components of a direct sum occupy orthogonal ambient blocks.
positive_roots is a lazy rational view, r = (2r) / 2.

Positive roots are ordered component-major, then lexicographically by
coefficient vector in the simple-root basis.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass

from .ratio import Q

COXETER = {"A": lambda l: l + 1, "D": lambda l: 2 * l - 2,
           "E": lambda l: {6: 12, 7: 18, 8: 30}[l]}

# 2 alpha for the Bourbaki simple roots of E_8 in the even coordinate model
_E8_SIMPLE = ((1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0),
              (-2, 2, 0, 0, 0, 0, 0, 0), (0, -2, 2, 0, 0, 0, 0, 0),
              (0, 0, -2, 2, 0, 0, 0, 0), (0, 0, 0, -2, 2, 0, 0, 0),
              (0, 0, 0, 0, -2, 2, 0, 0), (0, 0, 0, 0, 0, -2, 2, 0))


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


def _simple_roots(t: SimpleType) -> list[tuple[int, ...]]:
    """2 alpha for the simple roots of t in its own coordinates:
    e_i - e_(i+1), and e_(l-2) + e_(l-1) last for D_l."""
    l = t.rank
    if t.family == "E":
        return list(_E8_SIMPLE[:l])
    n, chain = (l + 1, l) if t.family == "A" else (l, l - 1)
    out = []
    for i in range(chain):
        v = [0] * n
        v[i], v[i + 1] = 2, -2
        out.append(tuple(v))
    if t.family == "D":
        out.append((0,) * (l - 2) + (2, 2))
    return out


def _positive_with_coeffs(simple: list[tuple[int, ...]],
                          ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(coefficients over simple, 2r) for each positive root of the system
    that the simple roots generate, sorted by coefficient vector.

    A positive root r of height > 1 has a simple root a with (r, a) = 1, and
    r - a is a positive root with (r - a, a) = -1.  Conversely, for a
    positive root r and a simple root a with (r, a) = -1, r + a is the
    reflection of r in a, a positive root.  So a search from the simple
    roots that adds a simple root a to r wherever (r, a) = -1 reaches every
    positive root and no other vector, with its integer coefficients; the
    inner products with the simple roots are carried along.
    """
    l = len(simple)
    cartan = [tuple(sum(map(operator.mul, a, b)) // 4 for b in simple)
              for a in simple]
    found = {}
    frontier = []
    for k, a in enumerate(simple):
        found[a] = c = tuple(int(k == m) for m in range(l))
        frontier.append((a, c, cartan[k]))
    while frontier:
        nxt = []
        for r, c, p in frontier:  # p[k] = (r, alpha_k)
            for k in range(l):
                if p[k] == -1:
                    s = tuple(map(operator.add, r, simple[k]))
                    if s not in found:
                        found[s] = cs = c[:k] + (c[k] + 1,) + c[k + 1:]
                        nxt.append((s, cs, tuple(map(operator.add, p,
                                                     cartan[k]))))
        frontier = nxt
    return sorted((c, r) for r, c in found.items())


def _neighbours(roots: list[tuple[int, ...]]) -> list[list[tuple[int, int]]]:
    """Per root i, [(j, gamma)] over the roots j not orthogonal to it, in j
    order, where r_gamma = +-(r_i -+ r_j) is the third root of the pair.

    Two roots meet only on coordinates where both are non-zero, so the inner
    products are summed per coordinate over the roots non-zero there, and a
    pair whose supports do not meet costs nothing.  The third root is looked
    up by key(v) = sum of v_c 9^c, which is linear and one-to-one on vectors
    with entries in -4..4, as 2r_i -+ 2r_j has: its key is key_i -+ key_j.
    """
    power = [9 ** c for c in range(len(roots[0]))]
    keys = []
    index = {}  # key(+-2r) -> index of the positive root r
    meets = [[] for _ in power]  # coordinate -> [(root, value)], by root
    support = []  # per root: (coordinate, value, position after it in meets)
    for i, r in enumerate(roots):
        s = []
        for c, v in enumerate(r):
            if v:
                meets[c].append((i, v))
                s.append((c, v, len(meets[c])))
        support.append(s)
        keys.append(k := sum(v * power[c] for c, v, _ in s))
        index[k] = index[-k] = i
    out: list[list[tuple[int, int]]] = [[] for _ in roots]
    for i, ki in enumerate(keys):
        dots: dict[int, int] = {}  # j > i -> 4 (r_i, r_j)
        for c, v, after in support[i]:
            for j, w in itertools.islice(meets[c], after, None):
                dots[j] = dots.get(j, 0) + v * w
        for j in sorted(dots):
            if d := dots[j]:
                # (r_i, r_j) = +-1 makes r_i -+ r_j a root
                g = index.get(ki - keys[j] if d > 0 else ki + keys[j])
                if g is None:
                    raise AssertionError("triple closure violated")
                out[i].append((j, g))
                out[j].append((i, g))
    return out


def _component(t: SimpleType) -> tuple:
    """(2 alpha per simple root, (coefficients, 2r) per positive root,
    neighbour lists) of one simple type in its own coordinates."""
    simple = _simple_roots(t)
    decorated = _positive_with_coeffs(simple)
    return simple, decorated, _neighbours([r for _, r in decorated])


class RootSystem:
    """A (semi)simple simply-laced root system with canonical indexing.

    doubled_roots[i] is 2 r_i for the i-th positive root and
    doubled_simple_roots[a] is 2 alpha_a, both as integer tuples in the
    ambient space.  neighbours[i] lists (j, gamma) over Delta_1(r_i) in j
    order, where r_gamma = +-(r_i -+ r_j).
    """

    def __init__(self, components: list[SimpleType]):
        if not components:
            raise ValueError("at least one component required")
        self.components = list(components)
        self.h_per_component = [c.coxeter for c in components]
        self.l = sum(c.rank for c in components)
        self.doubled_roots: list[tuple[int, ...]] = []
        self.doubled_simple_roots: list[tuple[int, ...]] = []
        # per positive root: coefficient vector over the global simple-root
        # list (integers; zero outside the component)
        self.simple_coeffs: list[tuple[int, ...]] = []
        self.neighbours: list[list[tuple[int, int]]] = []
        self.component_root_slices: list[range] = []
        self.component_simple_slices: list[range] = []

        # each distinct type is built once, in its own coordinates
        local = {comp: _component(comp) for comp in set(components)}
        dim = sum(len(local[comp][0][0]) for comp in components)
        offset = simple_offset = root_offset = 0
        for comp in components:
            simple, decorated, nbrs = local[comp]
            d, rank, n = len(simple[0]), len(simple), len(decorated)
            pad, tail = (0,) * offset, (0,) * (dim - offset - d)
            cpad, ctail = (0,) * simple_offset, (0,) * (
                self.l - simple_offset - rank)
            self.component_simple_slices.append(
                range(simple_offset, simple_offset + rank))
            self.doubled_simple_roots += [pad + a + tail for a in simple]
            self.component_root_slices.append(
                range(root_offset, root_offset + n))
            for coeffs, r in decorated:
                self.doubled_roots.append(pad + r + tail)
                self.simple_coeffs.append(cpad + coeffs + ctail)
            self.neighbours += [[(j + root_offset, g + root_offset)
                                 for j, g in row] for row in nbrs]
            offset += d
            simple_offset += rank
            root_offset += n
        self.N = len(self.doubled_roots)
        self._check_invariants(self.doubled_roots)

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

    @functools.cached_property
    def positive_roots(self) -> list[tuple]:
        """The positive roots as rational coordinates."""
        half = {c: Q(c, 2) for c in range(-2, 3)}
        return [tuple(half[c] for c in r) for r in self.doubled_roots]

    # -- queries -----------------------------------------------------------

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
