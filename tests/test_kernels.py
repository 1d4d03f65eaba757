"""Differential tests: the compiled basis tables of A, T and B+ against
the per-pair rules of the paper, the compiled integer kernels behind
element products and forms against the plain bilinear expansion over basis
pairs, and the map of Theorem 3.1 against the sum of its scaled basis
images."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from griess.algebra import StructureAlgebra
from griess.bplus import build_bplus
from griess.ratio import Q, q_parse, q_str
from griess.rootalgebra import build_A, build_T
from griess.rootsys import build, dot

from conftest import algebra_A, algebra_T, bplus, phi, system

SPECS = ("A1", "A2", "A3", "D4", "A1^2", "A2+A1")
KINDS = {"A": lambda spec: algebra_A(spec).alg,
         "T": lambda spec: algebra_T(spec).alg,
         "B+": lambda spec: bplus(spec).alg}

rationals = st.builds(Q, st.integers(-30, 30), st.integers(1, 12))
nonzero = rationals.filter(lambda q: q != 0)


# -- reference rules, one basis pair at a time -----------------------------

def root_algebra_rules(rs):
    """A(Phi) on t(0..N-1), u(N..2N-1): squares scale by 8, t(a) u(a) = 0,
    orthogonal roots multiply to 0, and a non-orthogonal pair closes on its
    third root g: t t and u u on -t(g), t u on -u(g).  The form is 4 on equal
    letters of a root, 1/2 on any letters of non-orthogonal roots, else 0.
    T(Phi) is the t-block."""
    N = rs.N

    def product(i, j):
        (ti, ri), (tj, rj) = (i < N, i % N), (j < N, j % N)
        if ri == rj:
            return {i: 8} if ti == tj else {}
        if rs.rel[ri][rj] == 2:
            return {}
        g = rs.gamma[(ri, rj)]
        return {i: 1, j: 1, (g if ti == tj else g + N): -1}

    def form(i, j):
        (ti, ri), (tj, rj) = (i < N, i % N), (j < N, j % N)
        if ri == rj:
            return 4 if ti == tj else 0
        return Q(1, 2) if rs.rel[ri][rj] == 1 else 0

    return product, form


def bplus_rules(rs):
    """B+ on the products ab (a <= b) of simple roots, then x_r:
    (ab)(cd) = (a,c)bd + (a,d)bc + (b,c)ad + (b,d)ac, (ab)x_r =
    2(a,r)(b,r) x_r, x_r x_s = 0 / x_g / 2 r^2 (orthogonal / closing on g /
    equal); <ab,cd> = (a,c)(b,d) + (a,d)(b,c), <ab,x_r> = 0,
    <x_r,x_s> = 2 [r = s]."""
    l = rs.l
    pairs = [(a, b) for a in range(l) for b in range(a, l)]
    ns = len(pairs)
    S = [[dot(x, y) for y in rs.simple_roots] for x in rs.simple_roots]
    P = [[sum(S[a][b] * c[b] for b in range(l)) for c in rs.simple_coeffs]
         for a in range(l)]

    def sym(a, b):
        return pairs.index((min(a, b), max(a, b)))

    def collect(terms):
        out = {}
        for k, v in terms:
            out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}

    def product(i, j):
        if i < ns and j < ns:
            (a, b), (c, d) = pairs[i], pairs[j]
            return collect([(sym(b, d), S[a][c]), (sym(b, c), S[a][d]),
                            (sym(a, d), S[b][c]), (sym(a, c), S[b][d])])
        if i >= ns and j >= ns:
            r, s = i - ns, j - ns
            if r == s:  # 2 r^2 with r = sum of c_a alpha_a
                c = rs.simple_coeffs[r]
                return collect([(sym(a, b), 2 * c[a] * c[b])
                                for a in range(l) for b in range(l)])
            return {} if rs.rel[r][s] == 2 else {ns + rs.gamma[(r, s)]: 1}
        (a, b), x = pairs[min(i, j)], max(i, j)
        return collect([(x, 2 * P[a][x - ns] * P[b][x - ns])])

    def form(i, j):
        if i < ns and j < ns:
            (a, b), (c, d) = pairs[i], pairs[j]
            return S[a][c] * S[b][d] + S[a][d] * S[b][c]
        return 2 if i == j >= ns else 0

    return product, form


RULES = {"A": root_algebra_rules, "T": root_algebra_rules, "B+": bplus_rules}


@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("spec", ["A1", "A3", "D4", "E6", "A2+A1"])
def test_basis_tables_match_the_rules(kind, spec):
    alg = KINDS[kind](spec)
    product, form = RULES[kind](system(spec))
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert alg.basis_product(i, j) == product(i, j), (i, j)
            assert alg.basis_form(i, j) == form(i, j), (i, j)


@pytest.mark.parametrize("make", [build_A, build_T, build_bplus],
                         ids=["A", "T", "B+"])
def test_each_row_source_is_read_once(make, monkeypatch):
    calls = Counter()

    def counted(name, source):
        def row(i):
            calls[name] += 1
            return source(i)
        return row

    class Counted(StructureAlgebra):
        def __init__(self, labels, product, form):
            super().__init__(labels, counted("product", product),
                             counted("form", form))

    for module in ("rootalgebra", "bplus"):
        monkeypatch.setattr(f"griess.{module}.StructureAlgebra", Counted)
    alg = make(build("D4")).alg
    x = alg.element([1] * alg.dim)
    alg.to_json()  # compiles every row of both tables
    alg.find_identity(), x * x, x.form(x)  # each reads every row again
    assert calls == {"product": alg.dim, "form": alg.dim}


def elements(alg):
    return st.dictionaries(st.integers(0, alg.dim - 1), rationals,
                           max_size=alg.dim).map(alg.element)


def expand_product(x, y, basis_product):
    out = {}
    for i, a in x.coeffs.items():
        for j, b in y.coeffs.items():
            for k, v in basis_product(i, j).items():
                out[k] = out.get(k, 0) + a * b * v
    return {k: v for k, v in out.items() if v != 0}


def expand_form(x, y, basis_form):
    return sum((a * b * basis_form(i, j) for i, a in x.coeffs.items()
                for j, b in y.coeffs.items()), Q(0))


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_root_algebras_match_expansion(kind, data):
    alg = KINDS[kind](data.draw(st.sampled_from(SPECS)))
    x, y = data.draw(elements(alg)), data.draw(elements(alg))
    assert (x * y).coeffs == expand_product(x, y, alg.basis_product)
    assert x.form(y) == expand_form(x, y, alg.basis_form)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_phi_apply_matches_sum_of_basis_images(data):
    p = phi(data.draw(st.sampled_from(SPECS)))
    x = data.draw(elements(p.domain.alg))
    expected = {}
    for i, c in x.coeffs.items():
        for k, v in p.image_of_basis(i).coeffs.items():
            expected[k] = expected.get(k, 0) + c * v
    assert p.apply(x).coeffs == {k: v for k, v in expected.items() if v != 0}


@st.composite
def json_tables(draw):
    """A random commutative table with rational (mostly non-integer)
    structure constants and a symmetric rational form."""
    dim = draw(st.integers(1, 6))
    products = []
    gram = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            terms = draw(st.dictionaries(st.integers(0, dim - 1), nonzero,
                                         max_size=3))
            if terms:
                products.append([i, j, [[k, q_str(v)]
                                        for k, v in sorted(terms.items())]])
            gram[i][j] = gram[j][i] = q_str(draw(rationals))
    return {"basis": [f"b{i}" for i in range(dim)], "products": products,
            "gram": gram}


@given(data=st.data(), table=json_tables())
@settings(max_examples=80, deadline=None)
def test_json_algebra_matches_its_table(data, table):
    alg = StructureAlgebra.from_json(table)
    # The reference reads the JSON itself, not the compiled rows.
    prods = {(i, j): {k: q_parse(v) for k, v in terms}
             for i, j, terms in table["products"]}

    def basis_product(i, j):
        return prods.get((min(i, j), max(i, j)), {})

    def basis_form(i, j):
        return q_parse(table["gram"][i][j])

    x, y = data.draw(elements(alg)), data.draw(elements(alg))
    assert (x * y).coeffs == expand_product(x, y, basis_product)
    assert x.form(y) == expand_form(x, y, basis_form)
    assert alg.to_json() == table
