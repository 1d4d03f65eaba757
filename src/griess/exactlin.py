"""Exact linear algebra over the rationals and over GF(2).

SparseSolver, incremental, sparse and fraction-free, is the one eliminator
over the rationals.  QMatrix, a dense
rational matrix kept as a reference for the tests, feeds it its rows for
rref / rank / solve.  Over GF(2) vectors are bitmasks; f2_span
lists a subspace for the singularity re-check of the Lagrangian count.
"""

from __future__ import annotations

import math
from typing import Sequence

from .ratio import Q, ZERO


class QMatrix:
    """Immutable dense rational matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        ent = tuple(tuple(Q(x) for x in row) for row in entries)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "rows", len(ent))
        object.__setattr__(self, "cols", len(ent[0]) if ent else 0)

    def __setattr__(self, *a):
        raise AttributeError("QMatrix is immutable")

    def _eliminated(self, rhs: Sequence = ()) -> "SparseSolver | None":
        """The rows, with rhs if given, fed to a SparseSolver; None when
        M x = rhs is inconsistent."""
        solver = SparseSolver(self.cols)
        for row, b in zip(self.entries, rhs or [ZERO] * self.rows):
            if not solver.add_equation(
                    {j: v for j, v in enumerate(row) if v}, Q(b)):
                return None
        return solver

    def rref(self) -> tuple[list[list], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column indices).

        The solver's pivot rows are mutually reduced with their pivot in
        their smallest column, so each divided by its pivot is a row of the
        RREF; zero rows fill up to the row count."""
        pivots = sorted(self._eliminated().pivot_rows.items())
        m = [[Q(row[j], row[pc]) if j in row else ZERO
              for j in range(self.cols)] for pc, (row, _) in pivots]
        m += [[ZERO] * self.cols for _ in range(self.rows - len(m))]
        return m, [pc for pc, _ in pivots]

    def rank(self) -> int:
        """Exact rank via fraction-free sparse elimination."""
        return self._eliminated().rank

    def solve(self, rhs: Sequence) -> list | None:
        """One exact solution of M x = rhs, or None if inconsistent; the
        free variables are 0."""
        if len(rhs) != self.rows:
            raise ValueError("dimension mismatch")
        solver = self._eliminated(rhs)
        if solver is None:
            return None
        x = [ZERO] * self.cols
        for pc, (row, b) in solver.pivot_rows.items():
            x[pc] = Q(b, row[pc])
        return x


class SparseSolver:
    """Incremental fraction-free sparse elimination over the rationals.

    Equations are sparse dicts col -> coefficient plus a rhs; rational
    equations are scaled to integers by the lcm of their denominators on
    entry.  Each pivot row is a primitive integer dict with an integer rhs
    and a positive entry in its pivot column, its smallest column.  Pivot
    rows are kept mutually reduced, so one pass over the pivot columns of an
    incoming row reduces it, by cross-multiplication (Bareiss, Math. Comp.
    1968).  holders maps each column outside the pivot columns to the pivot
    columns of the rows with an entry there, so a new pivot is eliminated
    from just those rows.  Rationals are built only by solution().  With
    rhs 0 the solver is the row space of the vectors fed to it, reducing
    others by reduce().
    """

    def __init__(self, n: int):
        self.n = n
        self.pivot_rows: dict[int, tuple[dict, int]] = {}
        self.holders: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def _reduce(self, row: dict, rhs) -> tuple[dict, int]:
        """The integer equation row = rhs, scaled and reduced."""
        den = math.lcm(rhs.denominator,
                       *(v.denominator for v in row.values() if v))
        row = {c: v.numerator * (den // v.denominator)
               for c, v in row.items() if v}
        rhs = rhs.numerator * (den // rhs.denominator)
        for c in [c for c in row if c in self.pivot_rows]:
            row, rhs = _eliminate(row, rhs, c, *self.pivot_rows[c])
        return row, rhs

    def add_equation(self, row: dict, rhs) -> bool:
        """Reduce and insert one equation.  Returns False on inconsistency."""
        row, rhs = self._reduce(row, rhs)
        if not row:
            return rhs == 0
        pc = min(row)
        row, rhs = _primitive(row, rhs, pc)
        holders = self.holders
        for oc in holders.pop(pc, ()):
            new = _primitive(*_eliminate(*self.pivot_rows[oc], pc, row, rhs),
                             oc)
            self.pivot_rows[oc] = new
            for c in row:
                if c in new[0]:
                    holders.setdefault(c, set()).add(oc)
                elif c != pc:
                    holders[c].discard(oc)
        for c in row:
            if c != pc:
                holders.setdefault(c, set()).add(pc)
        self.pivot_rows[pc] = (row, rhs)
        return True

    def reduce(self, row: dict) -> tuple[dict, int]:
        """For a solver fed rhs 0 only: (r, s), where s > 0 is an integer
        and r = s * row minus a combination of the pivot rows, with no
        entry in a pivot column.  r is empty iff the vector lies in the
        span of the rows fed so far."""
        return self._reduce(row, 1)

    def solution(self) -> list | None:
        """The unique solution if rank == n, else None."""
        if self.rank != self.n:
            return None
        x = [ZERO] * self.n
        for c, (row, rhs) in self.pivot_rows.items():
            x[c] = Q(rhs, row[c])
        return x


def _eliminate(row: dict, rhs: int, c: int, prow: dict,
               prhs: int) -> tuple[dict, int]:
    """(p/g) row - (f/g) prow with p = prow[c] > 0, f = row[c] and
    g = gcd(p, f), so column c drops out; consumes row."""
    p, f = prow[c], row.pop(c)
    g = math.gcd(p, f)
    if g != p:
        s = p // g
        row = {k: v * s for k, v in row.items()}
        rhs *= s
    f //= g
    for k, v in prow.items():
        if k != c:
            x = row.get(k, 0) - f * v
            if x:
                row[k] = x
            else:
                del row[k]
    return row, rhs - f * prhs


def _primitive(row: dict, rhs: int, pc: int) -> tuple[dict, int]:
    """The equation divided by the gcd of its entries, with row[pc] > 0."""
    g = math.gcd(rhs, *row.values())
    if row[pc] < 0:
        g = -g
    return {k: v // g for k, v in row.items()}, rhs // g


def f2_span(basis: Sequence[int]) -> list[int]:
    """All sums of subsets of basis; entry i sums basis[j] over the bits j
    of i, so the list has 2^len(basis) entries."""
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out
