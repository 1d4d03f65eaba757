import math

from griess.exactlin import QMatrix, SparseSolver, f2_span
from griess.ratio import Q

import pytest
from hypothesis import given, settings, strategies as st

from conftest import f2_rref, mul_vector


def transpose(m: QMatrix) -> QMatrix:
    return QMatrix(list(zip(*m.entries)))


class TestQMatrix:
    def test_rank_of_identity(self):
        assert QMatrix([[int(i == j) for j in range(5)]
                        for i in range(5)]).rank() == 5

    def test_rank_of_zero(self):
        assert QMatrix([[0] * 4 for _ in range(3)]).rank() == 0

    def test_rank_with_dependent_row(self):
        m = QMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert m.rank() == 2
        assert rank_bareiss(m) == 2

    def test_rank_bareiss_with_fractions(self):
        m = QMatrix([[Q(1, 2), Q(1, 3)], [Q(1, 5), Q(2, 15)]])
        assert m.rank() == rank_bareiss(m) == 1

    def test_kernel_annihilates(self):
        m = QMatrix([[1, 2, 3], [4, 5, 6]])
        basis = m.kernel_basis()
        assert len(basis) == 1
        assert mul_vector(m, basis[0]) == [0, 0]

    def test_solve_unique(self):
        m = QMatrix([[2, 0], [1, 3]])
        x = m.solve([4, 8])
        assert x is not None
        assert mul_vector(m, x) == [4, 8]

    def test_solve_inconsistent(self):
        m = QMatrix([[1, 1], [1, 1]])
        assert m.solve([1, 2]) is None

    def test_solve_underdetermined_picks_a_solution(self):
        m = QMatrix([[1, 1, 1]])
        x = m.solve([3])
        assert mul_vector(m, x) == [3]

    def test_transpose_rank_invariant(self):
        m = QMatrix([[1, 2], [3, 4], [5, 6]])
        assert m.rank() == transpose(m).rank()

    def test_immutable(self):
        m = QMatrix([[1]])
        with pytest.raises(AttributeError):
            m.rows = 2

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            QMatrix([[1, 2], [3]])


class TestSparseSolver:
    def test_matches_dense_solve(self):
        m = QMatrix([[2, 1, 0], [0, 1, 4], [1, 0, 1]])
        rhs = [Q(5), Q(9), Q(3)]
        solver = SparseSolver(3)
        for row, b in zip(m.entries, rhs):
            assert solver.add_equation(
                {j: v for j, v in enumerate(row) if v != 0}, b)
        assert solver.solution() == m.solve(rhs)

    def test_redundant_equation_consistent(self):
        solver = SparseSolver(2)
        assert solver.add_equation({0: 1, 1: 1}, 2)
        assert solver.add_equation({0: 2, 1: 2}, 4)
        assert solver.rank == 1
        assert solver.solution() is None

    def test_inconsistent_detected(self):
        solver = SparseSolver(2)
        assert solver.add_equation({0: 1, 1: 1}, 2)
        assert not solver.add_equation({0: 1, 1: 1}, 3)

    def test_rank_stops_growing(self):
        solver = SparseSolver(2)
        solver.add_equation({0: 1}, 1)
        solver.add_equation({1: 3}, 6)
        assert solver.rank == 2
        assert solver.solution() == [1, 2]


rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def sparse_systems(draw):
    """(n, [(row, rhs)]): random sparse rational rows, stored zeros included,
    mixed with combinations of earlier rows whose rhs is sometimes shifted,
    i.e. redundant and inconsistent equations."""
    n = draw(st.integers(1, 5))
    eqs = []
    for _ in range(draw(st.integers(1, 8))):
        if eqs and draw(st.booleans()):
            (r1, b1), (r2, b2) = (draw(st.sampled_from(eqs)),
                                  draw(st.sampled_from(eqs)))
            a, b = draw(rationals), draw(rationals)
            row = {c: a * r1.get(c, 0) + b * r2.get(c, 0)
                   for c in r1.keys() | r2.keys()}
            rhs = a * b1 + b * b2 + draw(st.sampled_from([0, 0, 1]))
        else:
            row = draw(st.dictionaries(st.integers(0, n - 1), rationals,
                                       max_size=n))
            rhs = draw(rationals)
        eqs.append((row, rhs))
    return n, eqs


def dense(n, rows):
    return QMatrix([[row.get(c, 0) for c in range(n)] for row in rows])


# -- reference: plain rational Gauss-Jordan on dense rows -------------------

def gauss_jordan(entries, cols):
    """(RREF rows, pivot columns) of a dense rational matrix, zero rows
    kept at the bottom; the textbook loop, in Fraction arithmetic."""
    m = [[Q(x) for x in r] for r in entries]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def ref_rank(m):
    return len(gauss_jordan(m.entries, m.cols)[1])


def ref_kernel_basis(m):
    rows, pivots = gauss_jordan(m.entries, m.cols)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [Q(0)] * m.cols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def ref_solve(m, rhs):
    rows, pivots = gauss_jordan(
        [list(r) + [Q(b)] for r, b in zip(m.entries, rhs)], m.cols + 1)
    if m.cols in pivots:
        return None
    x = [Q(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.cols]
    return x


# -- reference: dense fraction-free Bareiss elimination ---------------------

def rank_bareiss(m):
    """Exact rank of a QMatrix by fraction-free Bareiss elimination on
    dense integer rows (Math. Comp. 1968), independent of SparseSolver."""
    # Clear denominators row by row; scaling rows does not change rank.
    rows = []
    for row in m.entries:
        d = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * d) for x in row])
    rank, prev = 0, 1
    for c in range(m.cols):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c] != 0),
                  None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            r = rows[i]
            for j in range(c + 1, m.cols):
                r[j] = (p[c] * r[j] - r[c] * p[j]) // prev
            r[c] = 0
        prev = p[c]
        rank += 1
        if rank == len(rows):
            break
    return rank


@st.composite
def dense_matrices(draw):
    """(QMatrix, rhs): random rational rows, mostly zeros, with zero rows
    and combinations of earlier rows mixed in, often more rows than
    columns; rhs is sometimes consistent by construction."""
    cols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(Q(0)), rationals)
    rows, rhs = [], []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero":
            row, b = [Q(0)] * cols, draw(st.sampled_from([Q(0), Q(1)]))
        elif kind == "combination" and rows:
            i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
            a, c = draw(rationals), draw(rationals)
            row = [a * x + c * y for x, y in zip(rows[i], rows[j])]
            b = a * rhs[i] + c * rhs[j] + draw(st.sampled_from([0, 0, 1]))
        else:
            row = draw(st.lists(entry, min_size=cols, max_size=cols))
            b = draw(rationals)
        rows.append(row)
        rhs.append(b)
    return QMatrix(rows), rhs


class TestQMatrixDifferential:
    """QMatrix elimination against the plain Gauss-Jordan reference."""

    @settings(max_examples=300, deadline=None)
    @given(dense_matrices())
    def test_rref(self, case):
        m, _ = case
        assert m.rref() == gauss_jordan(m.entries, m.cols)

    @settings(max_examples=300, deadline=None)
    @given(dense_matrices())
    def test_rank_kernel_solve(self, case):
        m, rhs = case
        assert m.rank() == ref_rank(m) == rank_bareiss(m)
        assert m.kernel_basis() == ref_kernel_basis(m)
        assert m.solve(rhs) == ref_solve(m, rhs)
        t = transpose(m)
        assert t.rank() == ref_rank(t) == rank_bareiss(t)


class TestSparseSolverDifferential:
    """SparseSolver against the plain Gauss-Jordan reference."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_systems())
    def test_rank_consistency_solution(self, system):
        n, eqs = system
        solver = SparseSolver(n)
        consistent = all([solver.add_equation(row, rhs) for row, rhs in eqs])
        m = dense(n, [row for row, _ in eqs])
        dense_x = ref_solve(m, [rhs for _, rhs in eqs])
        assert solver.rank == ref_rank(m)
        assert consistent == (dense_x is not None)
        if consistent:
            assert solver.solution() == (dense_x if solver.rank == n else None)
        # holders indexes the entries of the pivot rows outside their pivot
        scanned: dict = {}
        for pc, (row, _) in solver.pivot_rows.items():
            for c in row:
                if c != pc:
                    scanned.setdefault(c, set()).add(pc)
        assert {c: h for c, h in solver.holders.items() if h} == scanned

    @settings(max_examples=300, deadline=None)
    @given(sparse_systems())
    def test_span_membership(self, system):
        n, eqs = system
        vectors = [row for row, _ in eqs[:-1]]
        candidate = eqs[-1][0]
        solver = SparseSolver(n)
        for v in vectors:
            solver.add_equation(v, 0)
        rank = ref_rank(dense(n, vectors)) if vectors else 0
        assert solver.rank == rank
        residual, scale = solver.reduce(candidate)
        assert (not residual) == (
            ref_rank(dense(n, vectors + [candidate])) == rank)
        # the residual is scale * candidate minus a vector of the span
        assert scale > 0 and not set(residual) & set(solver.pivot_rows)
        diff = {c: scale * candidate.get(c, 0) - residual.get(c, 0)
                for c in set(candidate) | set(residual)}
        assert ref_rank(dense(n, vectors + [diff])) == rank


class TestF2Matrix:
    """GF(2) matrices as bitmask rows, through the reference f2_rref and
    f2_span."""

    def test_rank(self):
        assert len(f2_rref([0b101, 0b011, 0b110])) == 2

    def test_rref_unique_pivots(self):
        reduced = f2_rref([0b1100, 0b0110, 0b1010])
        highs = [b.bit_length() - 1 for b in reduced]
        assert len(set(highs)) == len(reduced)

    def test_row_space_size(self):
        members = f2_span(f2_rref([0b101, 0b011]))
        assert len(set(members)) == 4
