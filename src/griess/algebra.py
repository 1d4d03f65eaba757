"""Finite-dimensional commutative (non-associative) algebras over Q.

A StructureAlgebra is a labeled basis together with sparse rational
structure constants and a symmetric bilinear form, each given as one table
of rows: row i lists only the j with b_i * b_j != 0 (resp. <b_i, b_j> != 0).

A table holds integer numerators over one denominator, the one format from
construction to JSON.  A table source is a callable with no arguments that
gives the whole table as

    product() -> (den, rows), rows[i] = {j: ((k, num), ...)}:
                 b_i b_j = sum_k num/den b_k
    form()    -> (den, rows), rows[i] = {j: num}: <b_i, b_j> = num/den

with den > 0, j and k increasing and no zero numerators.  The algebras of
the paper write their tables in this form directly: A and T the structure
constants 8, 1 and -1 over 1 and the form values 4 and 1/2 over 2, B+ its
product rules over 1 and the forms of its kernel over 2; from_json reads a
table into it over the lcm of its denominators.  Each source is called at
most once, when its table is first read (product_table, form_table).  The
product tables of A, T and B+ make each pair's entry once and store it in
both its rows, and so does from_json.

Element products and forms scale their operands to integers and walk the
rows of the sparser operand, so exact rationals are built only for the
output coefficients.

to_json returns its table as tuples inside the outer "products" and "gram"
lists: each entry (i, j, terms), its terms, each term (k, "value") and each
gram row.  json.dumps writes a tuple as an array, so the text is the same
as from lists.  One term tuple is made per distinct term and shared by the
entries that have it: 1,440 for the 81,120 terms of A(E8^2).  A tuple
cannot be changed, so neither can a shared term, and the cyclic garbage
collector untracks a tuple once its items are untracked: a term or a gram
row, of ints and strings, the first time a collection sees it, and an
entry within a collection or two more.  As lists, the 56,000 containers of
A(E8^2)'s table would be walked again by every later full collection, such
as those that the json.loads of a round trip triggers; as tuples they
leave the collector.

to_json and from_json pause the collector while they run: the containers
they allocate, none in a reference cycle, would trigger collections that
walk the growing table again, for nothing.  The caller's collector state
is restored on return and on an exception.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import re
from dataclasses import dataclass, field
from itertools import repeat, starmap
from operator import add, mul, or_, sub
from typing import Callable, Iterable, Mapping, Sequence

from .exactlin import SparseSolver
from .ratio import ONE, Q, ZERO, q_str

Sparse = dict  # index -> rational, no zero values stored


def _scaled(terms: tuple, f: int) -> tuple:
    """A product entry with its numerators times f."""
    return terms if f == 1 else tuple((k, v * f) for k, v in terms)


@contextlib.contextmanager
def _gc_paused():
    """Run without the cyclic garbage collector, then restore the caller's
    setting (module docstring)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _q_str(num: int, den: int) -> str:
    """q_str of num/den, for den > 0."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class _Strings(dict):
    """num -> q_str of num/den, and a term (k, num) -> the JSON term
    (k, q_str of num/den), each made on its first lookup: few distinct
    numerators occur, so to_json formats each once per table, and equal
    terms share one tuple."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, key: int | tuple) -> str | tuple:
        s = self[key] = ((key[0], self[key[1]]) if type(key) is tuple
                         else _q_str(key, self.den))
        return s


_JSON_VALUE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _json_value(s: str) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms of a coefficient string of
    to_json: "p" or "p/q" in ASCII digits, p with an optional "-"."""
    if type(s) is not str:
        raise ValueError(f"{s!r} is not a string")
    if (m := _JSON_VALUE.fullmatch(s)) is None:
        raise ValueError(f"{s!r} is not of the form p or p/q")
    num, den = m.groups()
    if den is None:
        return int(num), 1
    num, den = int(num), int(den)
    if not den:
        raise ValueError(f"{s!r} has denominator 0")
    g = math.gcd(num, den)
    return num // g, den // g


def _json_entry(terms: list, value: Callable) -> tuple:
    """([(k, numerator), ...] over increasing k, den) of the non-zero terms
    [k, string] of a product in any order, den the lcm of theirs."""
    vals = {}
    for k, s in terms:
        if type(k) is not int:
            raise ValueError(f"term index {k!r} is not an integer")
        if k in vals:
            raise ValueError(f"b_{k} has two terms")
        if (p := value(s) if type(s) is str else _json_value(s))[0]:
            vals[k] = p
    den = math.lcm(*{d for _, d in vals.values()})
    return [(k, num * (den // d)) for k, (num, d) in sorted(vals.items())], den


def _json_product_table(products: list, n: int, value: Callable) -> tuple:
    """The product table (den, rows) of the "products" of a to_json table,
    over the lcm of its denominators; see StructureAlgebra.from_json."""
    shared: dict = {}  # (k, string) -> the term (k, num) over den 1
    rows: list[dict] = [{} for _ in range(n)]
    over = {}  # (i, j), i <= j -> den, for the entries over den > 1
    ordered, last = True, (0, -1)
    for e, entry in enumerate(products):
        try:
            i, j, terms = entry
            if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n):
                raise ValueError(f"basis pair ({i!r}, {j!r}) is outside the "
                                 f"basis 0..{n - 1}")
            if i > j:
                i, j = j, i
            if j in rows[i]:
                raise ValueError(f"basis pair ({i}, {j}) is listed twice")
            ordered = ordered and last < (i, j)
            last = (i, j)
            # as to_json writes them: integers on increasing k, none zero;
            # k and s are checked before they are compared or hashed
            t, k0, d = [], -1, 1
            for k, s in terms:
                if type(k) is int and type(s) is str and k > k0:
                    if (term := shared.get((k, s))) is None:
                        num, d = value(s)
                        if num and d == 1:
                            term = shared[k, s] = (k, num)
                    if term is not None:
                        t.append(term)
                        k0 = k
                        continue
                t, d = _json_entry(terms, value)
                break
            if not t:
                continue
            if not (0 <= t[0][0] and t[-1][0] < n):
                bad = next(k for k, _ in t if not 0 <= k < n)
                raise ValueError(f"term on b_{bad}, outside the basis "
                                 f"0..{n - 1}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"products[{e}]: {exc}") from None
        rows[i][j] = rows[j][i] = tuple(t)
        if d != 1:
            over[i, j] = d
    # rescale each entry to the table's denominator, in both its rows
    den = math.lcm(*over.values())
    for i, row in enumerate(rows if over else ()):
        for j, t in row.items():
            if j >= i:
                row[j] = rows[j][i] = _scaled(t, den // over.get((i, j), 1))
    if not ordered:
        rows = [dict(sorted(row.items())) for row in rows]
    return den, rows


def _json_form_table(gram: list, n: int, value: Callable) -> tuple:
    """The form table (den, rows) of the "gram" of a to_json table, which
    must be symmetric, over the lcm of its denominators."""
    if len(gram) != n:
        raise ValueError(f"gram has {len(gram)} rows, not {n}")
    for i, grow in enumerate(gram):
        if len(grow) != n:
            raise ValueError(f"gram[{i}] has {len(grow)} entries, not {n}")
    # per row i, the k < i with gram[k][i] != "0", in k order, and those
    # gram[k][i]; gram is symmetric when each row repeats them below its
    # diagonal and, by its count of "0", has no other entry there
    lower: list[list] = [[] for _ in range(n)]
    mirror: list[list] = [[] for _ in range(n)]
    symmetric = True
    rows, parsed = [], {}  # per row {j: string}; string -> value
    for i, grow in enumerate(gram):
        upper = [j for j, s in enumerate(grow[i + 1:], i + 1) if s != "0"]
        for j in upper:
            lower[j].append(i)
            mirror[j].append(grow[j])
        cols = lower[i] + [i] + upper if grow[i] != "0" else lower[i] + upper
        vals = [grow[j] for j in cols]
        if (vals[:len(mirror[i])] != mirror[i]
                or n - grow.count("0") != len(cols)):
            symmetric = False
        try:
            new = set(vals).difference(parsed)
        except TypeError:  # a list or an object: _json_value names it
            new = [next(s for s in vals if type(s) is not str)]
        for s in new:
            try:
                parsed[s] = value(s) if type(s) is str else _json_value(s)
            except ValueError as exc:
                raise ValueError(
                    f"gram[{i}][{grow.index(s)}]: {exc}") from None
        rows.append(dict(zip(cols, vals)))
    # numerators over the table's lcm, zeros other than "0" left out
    den = math.lcm(*(d for _, d in parsed.values()))
    num = {s: v * (den // d) for s, (v, d) in parsed.items()}
    nonzero = all(num.values())
    for i, row in enumerate(rows):
        nums = map(num.__getitem__, row.values())
        rows[i] = (dict(zip(row, nums)) if nonzero
                   else {j: v for j, v in zip(row, nums) if v})
    if not symmetric:
        _check_symmetric(gram, value)
    return den, rows


def _check_symmetric(gram: list, value: Callable):
    """Raise ValueError at the first entry of gram whose value differs from
    that of its mirror."""
    for i, grow in enumerate(gram):
        for j in range(i + 1, len(gram)):
            if value(gram[j][i]) != value(grow[j]):
                raise ValueError(f"gram[{j}][{i}] is {gram[j][i]}, "
                                 f"gram[{i}][{j}] is {grow[j]}")


class DependentError(ValueError):
    """Element number index lies in the span of the elements before it."""

    def __init__(self, index: int):
        super().__init__(f"elements are linearly dependent: vector #{index} "
                         "lies in the span of its predecessors")
        self.index = index


class StructureAlgebra:
    """Commutative algebra given by a table of basis products and one of a
    form, from the table sources product and form (module docstring)."""

    def __init__(self, basis_labels: Sequence[str],
                 product: Callable[[], tuple], form: Callable[[], tuple]):
        self.basis_labels = list(basis_labels)
        self.dim = len(self.basis_labels)
        self._product_fn, self._form_fn = product, form

    @functools.cached_property
    def product_table(self) -> tuple:
        """(den, rows): b_i * b_j = sum_k num/den b_k over rows[i][j], the
        terms (k, num)."""
        return self._product_fn()

    @functools.cached_property
    def form_table(self) -> tuple:
        """(den, rows): <b_i, b_j> = rows[i][j]/den, 0 where j is absent."""
        return self._form_fn()

    # -- basis-level access ------------------------------------------------

    def basis_product(self, i: int, j: int) -> Sparse:
        den, rows = self.product_table
        return {k: Q(v, den) for k, v in rows[i].get(j, ())}

    # -- elements ----------------------------------------------------------

    def element(self, coeffs: Mapping | Sequence) -> "AlgebraElement":
        if not isinstance(coeffs, Mapping):
            coeffs = {i: c for i, c in enumerate(coeffs)}
        return AlgebraElement(self, {int(i): Q(c) for i, c in coeffs.items()
                                     if c != 0})

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def first_unfixed_basis(self, x: "AlgebraElement",
                            indices: Iterable[int] | None = None):
        """The first j in indices (default: all) with x * b_j != b_j, or
        None; each product walks the row of b_j, in integer numerators."""
        xs, xd = x._integer_coeffs()
        for j in range(self.dim) if indices is None else indices:
            out, den = self.bilinear({j: 1}, xs)
            # x * b_j = sum_k out[k] / (den * xd) b_k
            if out.pop(j, 0) != den * xd or any(out.values()):
                return j
        return None

    @functools.cached_property
    def product_bound(self) -> tuple[int, int]:
        """(K, den): every numerator of the product table, over bilinear's
        denominator den, is at most K in absolute value.  Read from the
        table."""
        den, rows = self.product_table
        return max((abs(v) for row in rows for e in row.values()
                    for _, v in e), default=0), den

    def first_idempotent_failure(self, elements: Sequence["AlgebraElement"]
                                 ) -> tuple[int, int] | None:
        """The first pair (i, j), i <= j in lexicographic order, with
        e_i e_j != [i = j] e_i, or None.  With None, the n non-zero
        elements are independent (e_i = sum over j != i of c_j e_j gives
        e_i = e_i^2 = 0) and span a copy of Q^n, which is associative.

        Each element is kept once as integer numerators x_i over its own
        denominator d_i, so e_i e_j = x_i x_j / (den d_i d_j) and the pair
        (i, j) holds iff every coefficient of the integer vector
        D_ij = x_i x_j - [i = j] den d_i x_i is 0.  All pairs of row i come
        from one product, by Kronecker substitution: with
        Z = sum_j 2^(b j) x_j, bilinearity gives
            x_i Z - 2^(b i) den d_i x_i = sum_j 2^(b j) D_ij,
        so one bilinear(x_i, Z) per element replaces n - i pairwise ones.

        The width b.  With (K, den) = product_bound, each coefficient of
        x_i x_j sums x_ia x_jc times a table numerator over the pairs
        (a, c), so it is at most K |x_i|_1 |x_j|_1, and the diagonal term
        at most den d_i |x_i|_inf.  So every coefficient of D_ij is at most
        T = K max_j |x_j|_1^2 + den max_j d_j |x_j|_inf in absolute value,
        and b = bit length of T gives T < 2^b.  Take one coefficient k of
        the sum, and j0 the first j with D_ij[k] != 0: the coefficient is
        2^(b j0) (D_ij0[k] + 2^b m) for an integer m, and D_ij0[k] + 2^b m
        is D_ij0[k] modulo 2^b, not 0 as 0 < |D_ij0[k]| < 2^b.  So its
        lowest set bit lies in digit j0, bits b j0 to b j0 + b - 1 (in two's
        complement, as | and & read a negative int, -m has the lowest set
        bit of m).  The | of all coefficients therefore is 0 iff row i
        holds, and else has its lowest set bit in the digit of the first j
        with D_ij != 0.  The rows before i held, so D_ij = D_ji = 0 for
        j < i by commutativity, and that j is at least i.  Integers
        throughout: the test is exact, with no tolerance."""
        scaled = [e._integer_coeffs() for e in elements]
        K, den = self.product_bound
        l1 = max((sum(map(abs, x.values())) for x, _ in scaled), default=0)
        diag = max((d * max(map(abs, x.values()), default=0)
                    for x, d in scaled), default=0)
        b = (K * l1 * l1 + den * diag).bit_length()
        packed: dict = {}
        for j, (x, _) in enumerate(scaled):
            for k, v in x.items():
                packed[k] = packed.get(k, 0) + (v << b * j)
        z = self.operand(packed)
        for i, (x, d) in enumerate(scaled):
            out = self.bilinear(x, z)[0]
            f = den * d << b * i
            for k, v in x.items():
                out[k] = out.get(k, 0) - v * f
            if low := functools.reduce(or_, out.values(), 0):
                return i, ((low & -low).bit_length() - 1) // b
        return None

    def operand(self, nums: dict) -> dict:
        """The integer coefficient dict of an element as it is kept for
        bilinear (AlgebraElement._integer_coeffs); a subclass may return a
        dict that also caches what its products need."""
        return nums

    def bilinear(self, x: Mapping, y: Mapping, form: bool = False) -> tuple:
        """x * y, or <x, y> if form, of integer coefficient dicts.

        Returns (numerators, den) with the exact value numerators / den:
        for the product a dict {k: numerator} that may hold zeros, for the
        form an int, both over the table's denominator.  Walks the rows of
        the sparser operand, which is valid by commutativity; each row meets
        the other operand by lookups from the shorter of the two.
        """
        if len(x) > len(y):
            x, y = y, x
        den, rows = self.form_table if form else self.product_table
        yget, n = y.get, len(y)
        if form:
            total = 0
            for j, c in x.items():
                nbrs = rows[j]
                pairs = (zip(nbrs.values(), map(yget, nbrs, repeat(0)))
                         if len(nbrs) <= n else
                         zip(map(nbrs.get, y, repeat(0)), y.values()))
                total += c * sum(starmap(mul, pairs))
            return total, den
        out: dict = {}
        get = out.get
        for j, c in x.items():
            nbrs = rows[j]
            if len(nbrs) <= n:
                for i, e in nbrs.items():
                    if w := yget(i):
                        cw = c * w
                        for k, v in e:
                            out[k] = get(k, 0) + cw * v
            else:
                for i, w in y.items():
                    if e := nbrs.get(i):
                        cw = c * w
                        for k, v in e:
                            out[k] = get(k, 0) + cw * v
        return out, den

    def neighbours(self, i: int) -> set:
        """The j with b_i * b_j != 0 or <b_i, b_j> != 0."""
        return (self.product_table[1][i].keys()
                | self.form_table[1][i].keys())

    def form_matrix(self, elements: Sequence["AlgebraElement"]) -> list[list]:
        """<e_i, e_j> for every pair of the elements, from one Gram-vector
        product G e_j per element and integer dot products."""
        scaled = [e._integer_coeffs() for e in elements]
        den, rows = self.form_table
        gram = []  # G e_j = g / den
        for xs, xd in scaled:
            g: dict = {}
            for b, c in xs.items():
                for a, v in rows[b].items():
                    g[a] = g.get(a, 0) + c * v
            gram.append((g, den * xd))
        out = [[ZERO] * len(elements) for _ in elements]
        for j, (g, gd) in enumerate(gram):
            for i, (xs, xd) in enumerate(scaled[:j + 1]):
                if num := sum(xs[a] * g[a] for a in xs.keys() & g.keys()):
                    out[i][j] = out[j][i] = Q(num, xd * gd)
        return out

    def find_identity(self) -> "AlgebraElement | None":
        """Solve x * b_j = b_j for all j exactly; None if no solution.

        Coefficient k of x * b_j gives one integer equation.  Most with
        k != j read c (x_a - x_b) = 0 (in A(Phi), a_alpha = a_gamma for the
        third root gamma): they join two trees of a union-find over the
        basis, on each of which x is constant.  The rest (the diagonal
        k = j, rhs den, too) are held.  Once the forest is one tree, or
        after the last row, each held equation is contracted onto the trees
        (its coefficients summed per tree) and fed to a SparseSolver with
        one unknown per tree until its rank is the tree count m.  An
        identity is unique if it exists, so rank < m means none.  A check
        over every b_j certifies the candidate whatever was skipped; no
        closed form seeds the solve, which cross-checks delta and epsilon.
        """
        tree = [[a] for a in range(self.dim)]  # a's tree, as its members
        held: list = []
        den, rows = self.product_table
        for j in range(self.dim):
            # x * b_j = b_j, scaled by the denominator: integer equations
            cols: dict[int, list] = {}
            for i, terms in rows[j].items():
                for k, v in terms:
                    cols.setdefault(k, []).append((i, v))
            if j not in cols:
                # b_j never occurs in any product x*b_j: no identity exists.
                return None
            for k, c in cols.items():
                if len(c) == 2 and k != j and c[0][1] == -c[1][1]:
                    ta, tb = tree[c[0][0]], tree[c[1][0]]
                    if ta is not tb:
                        if len(ta) > len(tb):
                            ta, tb = tb, ta
                        for a in ta:
                            tree[a] = tb
                        tb += ta
                else:
                    held.append((dict(c), den if k == j else 0))
            if len(tree[0]) == self.dim:
                break
        # one unknown per tree, numbered in the order of their first members
        ids: dict = {}
        at = [ids.setdefault(id(t), len(ids)) for t in tree]
        solver = SparseSolver(len(ids))
        for c, rhs in held:
            if solver.rank == solver.n:
                break
            row: dict = {}
            for a, v in c.items():
                row[at[a]] = row.get(at[a], 0) + v
            if not solver.add_equation({t: v for t, v in row.items() if v},
                                       rhs):
                return None  # inconsistent
        y = solver.solution()
        if y is None:
            return None
        cand = self.element([y[t] for t in at])
        return cand if self.first_unfixed_basis(cand) is None else None

    def is_associative_span(self, elements: Sequence["AlgebraElement"],
                            ) -> bool:
        """True iff the span of the elements is closed and associative.

        No code in the library calls it: Lemma 4.2 is checked by
        first_idempotent_failure, whose own reference in the tests is
        element products pair by pair, and thm2.7 by its pairwise products
        clause.  It stays as the tests' reference for the associativity
        verdict of both, and because the benchmark's tracer
        (perfbench/tracing.py) wraps it by name, though its span there
        reads 0.  It moves to tests/conftest.py, with DependentError, once
        the benchmark no longer names it.

        Raises DependentError, a ValueError, if the elements are not
        linearly independent: each is fed to a SparseSolver with a tag
        column of its own, and is dependent when its pivot lands in a tag
        column.  A vector reduced against that solver carries its
        coordinates over the elements in the tag columns.  By commutativity
        the n(n+1)/2 products e_i e_j, i <= j, give the structure constants
        C_ij^m: none for 0, a dict lookup for a product equal to an element,
        else the reduction, whose residual outside the tag columns means the
        span is not closed.  Coordinates are unique, so (e_i e_j) e_k =
        e_i (e_j e_k) iff sum_m C_ij^m C_mk = sum_m C_jk^m C_im.  Both sides
        vanish unless C_ij or C_jk has a term, and the triple (k, j, i)
        states the same equation, so the triples with C_jk != 0 cover all.
        """
        dim, n = self.dim, len(elements)
        span = SparseSolver(dim + n)
        for idx, e in enumerate(elements):
            span.add_equation({**e.coeffs, dim + idx: ONE}, 0)
            if max(span.pivot_rows) >= dim:
                raise DependentError(idx)
        index = {e: m for m, e in enumerate(elements)}
        C = [[{}] * n for _ in range(n)]  # C[i][j] = {m: C_ij^m}
        for i in range(n):
            for j in range(i, n):
                p = elements[i] * elements[j]
                if p.is_zero():
                    continue
                if p in index:
                    c = {index[p]: ONE}
                else:
                    row, s = span.reduce(p.coeffs)
                    if min(row) < dim:
                        return False
                    c = {k - dim: Q(-v, s) for k, v in row.items()}
                C[i][j] = C[j][i] = c

        def times(c: dict, k: int) -> dict:
            """sum_m c[m] C_mk."""
            out: dict = {}
            for m, x in c.items():
                for q, y in C[m][k].items():
                    out[q] = out.get(q, 0) + x * y
            return {q: v for q, v in out.items() if v}

        for j in range(n):
            nz = [k for k in range(n) if C[j][k]]
            for i in range(n):
                for k in nz:
                    if times(C[i][j], k) != times(C[j][k], i):
                        return False
        return True

    # -- serialization -----------------------------------------------------

    @_gc_paused()
    def to_json(self) -> dict:
        """The tables as {"basis": labels, "products": [(i, j, terms), ...],
        "gram": [row, ...]} for from_json: an entry per pair i <= j with a
        non-zero product, its terms ((k, "value"), ...) on increasing k,
        and dim rows of dim values, each value "p" or "p/q" in lowest
        terms.  Everything inside the two lists is a tuple and equal terms
        are one tuple, so the table is immutable and the collector stops
        tracking it (module docstring)."""
        (pden, prows), (fden, frows) = self.product_table, self.form_table
        pterm, ffmt = _Strings(pden).__getitem__, _Strings(fden)
        products, gram = [], []
        for i, (prow, frow) in enumerate(zip(prows, frows)):
            for j, terms in prow.items():
                if j >= i:
                    products.append((i, j, tuple(map(pterm, terms))))
            row = ["0"] * self.dim
            for j, v in frow.items():
                row[j] = ffmt[v]
            gram.append(tuple(row))
        return {"basis": list(self.basis_labels), "products": products,
                "gram": gram}

    @classmethod
    @_gc_paused()
    def from_json(cls, data: dict) -> "StructureAlgebra":
        """The algebra of a to_json table, its two tables built here.

        Each distinct coefficient string is parsed once, the entry of each
        listed pair is built once and shared by both its rows, and each term
        (k, num) over denominator 1 by every entry that has it.  Pairs may
        come in any order and either way round, and terms in any order,
        zeros included.  Raises ValueError, naming the entry, for an entry
        that is not [i, j, terms], an index that is no int, such as true
        or 1.0, or lies outside the basis, a pair or term listed twice, a
        value that is not a string "p" or "p/q" in ASCII digits, p with an
        optional "-", or has denominator 0, or a gram that is not dim x dim
        or not symmetric.
        """
        n = len(data["basis"])
        value = functools.cache(_json_value)
        products = _json_product_table(data["products"], n, value)
        forms = _json_form_table(data["gram"], n, value)
        return cls(data["basis"], lambda: products, lambda: forms)


class AlgebraElement:
    """Sparse element of a StructureAlgebra; a value type."""

    __slots__ = ("algebra", "coeffs", "_key", "_hash", "_scaled")

    def __init__(self, algebra: StructureAlgebra, coeffs: Sparse):
        self.algebra = algebra
        self.coeffs = coeffs
        self._key = None
        self._hash = None
        self._scaled = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple(sorted(self.coeffs.items()))
        return self._key

    def _integer_coeffs(self) -> tuple[dict, int]:
        """({i: numerator}, den) with coefficient i = numerator / den."""
        if self._scaled is None:
            den = math.lcm(*(c.denominator for c in self.coeffs.values()))
            self._scaled = (self.algebra.operand(
                {i: c.numerator * (den // c.denominator)
                 for i, c in self.coeffs.items()}), den)
        return self._scaled

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.algebra is other.algebra
                and self.coeffs == other.coeffs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._combine(other, add)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._combine(other, sub)

    def _combine(self, other: "AlgebraElement", op: Callable
                 ) -> "AlgebraElement":
        """self op other, coefficient by coefficient, for op add or sub."""
        self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            if v := op(out.get(i, ZERO), c):
                out[i] = v
            else:
                del out[i]
        return AlgebraElement(self.algebra, out)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Bilinear extension of the structure constants."""
        out, den = self._bilinear(other, form=False)
        return AlgebraElement(self.algebra, {k: Q(v, den)
                                             for k, v in out.items() if v})

    def form(self, other: "AlgebraElement"):
        return Q(*self._bilinear(other, form=True))

    def _bilinear(self, other: "AlgebraElement", form: bool) -> tuple:
        self._check(other)
        (x, dx), (y, dy) = self._integer_coeffs(), other._integer_coeffs()
        out, den = self.algebra.bilinear(x, y, form)
        return out, den * dx * dy

    def central_charge(self):
        """Eight times the squared norm of the element."""
        return 8 * self.form(self)

    def to_json(self) -> list:
        return [[i, q_str(c)] for i, c in sorted(self.coeffs.items())]

    def _check(self, other: "AlgebraElement"):
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")

    def __repr__(self):
        terms = ", ".join(f"{q_str(c)}*{self.algebra.basis_labels[i]}"
                          for i, c in sorted(self.coeffs.items())[:6])
        more = "" if len(self.coeffs) <= 6 else f", ... ({len(self.coeffs)} terms)"
        return f"<{terms or '0'}{more}>"


@dataclass
class DecompositionReport:
    """Idempotents and charges as built, with what verify judges them by."""

    idempotents: list[AlgebraElement]
    charges: list
    chain_description: str
    checks: dict = field(default_factory=dict)
    blocks: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "idempotents": [e.to_json() for e in self.idempotents],
            "charges": [q_str(c) for c in self.charges],
            "chain": self.chain_description,
        }
