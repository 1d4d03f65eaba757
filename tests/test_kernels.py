"""Differential tests: the compiled integer kernels behind element products
and forms against the plain bilinear expansion over basis pairs, and the
map of Theorem 3.1 against the sum of its scaled basis images."""

import pytest
from hypothesis import given, settings, strategies as st

from griess.algebra import StructureAlgebra
from griess.ratio import Q, q_parse, q_str

from conftest import algebra_A, algebra_T, bplus, phi

SPECS = ("A1", "A2", "A3", "D4", "A1^2", "A2+A1")
KINDS = {"A": lambda spec: algebra_A(spec).alg,
         "T": lambda spec: algebra_T(spec).alg,
         "B+": lambda spec: bplus(spec).alg}

rationals = st.builds(Q, st.integers(-30, 30), st.integers(1, 12))
nonzero = rationals.filter(lambda q: q != 0)


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
