"""Differential tests: the integer tables that the builders of A, T and B+
give against the encoding of the paper's rules, as per-pair rules and as
dict rows, each table source called at most once, one entry object per
pair in the product tables of A, T and B+, A's table left unbuilt until
a row is read, their basis tables against the per-pair rules, bilinear's
two lookup directions against the plain expansion, from_json on tables written in any order against the reference encoder,
the integer kernels behind element products and forms against the plain
bilinear expansion over basis pairs, the map of Theorem 3.1 against the
sum of its scaled basis images, the associativity check on structure
constants against the triple products of elements, Lemma 4.2's pairwise
idempotent certificate against that check, the identity solve
against one dense solve of the whole system and against its one solver
per union-find forest and the held equations contracted onto the trees,
delta, epsilon, the JSON round trip, the charges of random chains and
phi's counted rank, against their closed form and the dense rank, on
random direct sums, the rank left uncounted by a broken square or a lost
path root, the JSON
form against recorded bytes and its own reading, and the identity certificates of the
chain decomposition against the pairwise products and forms of its
idempotents and the exhaustive associativity check.  The check of
Theorem 3.1, on closed-form products and forms per root pair, is
compared with the per-pair products and forms of the images, also on the
root pairs it leaves out, whose kernel products are checked to be 0; its
closed forms are compared with the kernel's products and forms.
cor3.2's clauses, the positive-definite Cartan matrix and thm3.1's
isometry, are compared with the dense kernel and radical, also on broken
inputs.  B+'s element products and forms, which
run on the S^2(H) kernel, are compared with its product table and the
reference form rule on basis pairs, dense elements and chain
images."""

import contextlib
import functools
import gc
import io
import hashlib
import itertools
import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from griess import rootalgebra
from griess.algebra import DependentError, StructureAlgebra
from griess import bplus as bplus_module, verify
from griess.bplus import (BPlusStructure, PhiMap, build_bplus,
                          verify_theorem_3_1)
from griess.cli import run
from griess.exactlin import QMatrix, SparseSolver
from griess.niemeier import catalog_entry, lemma_4_2_subalgebra
from griess.ratio import Q, q_parse, q_str
from griess.rootalgebra import (RootAlgebra, build_A, build_T,
                                chain_idempotents, coset_chain_decompose,
                                delta, generalized_chain_decompose)
from griess.rootsys import build

from conftest import (algebra_A, algebra_T, basis_element,
                      basis_form, bplus, certificate, dot, encode_rows,
                      gram_matrix,
                      is_idempotent, json_document, kernel_basis,
                      null_space, phi,
                      phi_kernel_basis, phi_matrix, reference, simple_roots,
                      system)

SPECS = ("A1", "A2", "A3", "D4", "A1^2", "A2+A1")
KINDS = {"A": lambda spec: algebra_A(spec).alg,
         "T": lambda spec: algebra_T(spec).alg,
         "B+": bplus}

rationals = st.builds(Q, st.integers(-30, 30), st.integers(1, 12))
nonzero = rationals.filter(lambda q: q != 0)


# -- reference rules, one basis pair at a time -----------------------------

def root_algebra_rules(rs):
    """A(Phi) on t(0..N-1), u(N..2N-1): squares scale by 8, t(a) u(a) = 0,
    orthogonal roots multiply to 0, and a non-orthogonal pair closes on its
    third root g: t t and u u on -t(g), t u on -u(g).  The form is 4 on equal
    letters of a root, 1/2 on any letters of non-orthogonal roots, else 0.
    T(Phi) is the t-block."""
    N, ref = rs.N, reference(rs.spec_string())

    def product(i, j):
        (ti, ri), (tj, rj) = (i < N, i % N), (j < N, j % N)
        if ri == rj:
            return {i: 8} if ti == tj else {}
        if ref.rel[ri][rj] == 2:
            return {}
        g = ref.gamma[(ri, rj)]
        return {i: 1, j: 1, (g if ti == tj else g + N): -1}

    def form(i, j):
        (ti, ri), (tj, rj) = (i < N, i % N), (j < N, j % N)
        if ri == rj:
            return 4 if ti == tj else 0
        return Q(1, 2) if ref.rel[ri][rj] == 1 else 0

    return product, form


def bplus_rules(rs):
    """B+ on the products ab (a <= b) of simple roots, then x_r:
    (ab)(cd) = (a,c)bd + (a,d)bc + (b,c)ad + (b,d)ac, (ab)x_r =
    2(a,r)(b,r) x_r, x_r x_s = 0 / x_g / 2 r^2 (orthogonal / closing on g /
    equal); <ab,cd> = (a,c)(b,d) + (a,d)(b,c), <ab,x_r> = 0,
    <x_r,x_s> = 2 [r = s]."""
    l, ref = rs.l, reference(rs.spec_string())
    pairs = [(a, b) for a in range(l) for b in range(a, l)]
    ns = len(pairs)
    S = [[dot(x, y) for y in simple_roots(rs)] for x in simple_roots(rs)]
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
            return {} if ref.rel[r][s] == 2 else {ns + ref.gamma[(r, s)]: 1}
        (a, b), x = pairs[min(i, j)], max(i, j)
        return collect([(x, 2 * P[a][x - ns] * P[b][x - ns])])

    def form(i, j):
        if i < ns and j < ns:
            (a, b), (c, d) = pairs[i], pairs[j]
            return S[a][c] * S[b][d] + S[a][d] * S[b][c]
        return 2 if i == j >= ns else 0

    return product, form


RULES = {"A": root_algebra_rules, "T": root_algebra_rules, "B+": bplus_rules}
BUILDERS = {"A": lambda rs: build_A(rs).alg, "T": lambda rs: build_T(rs).alg,
            "B+": build_bplus}


def root_algebra_rows(rs, t_only):
    """The paper's rules as dict rows over the neighbour lists, row i
    {j: {k: value}} and {j: value}: t(a) t(a) = 8 t(a), t t and u u close
    on -t(g), mixed pairs on -u(g); the form is 4 on the diagonal and 1/2
    on non-orthogonal roots."""
    N, nbrs = rs.N, rs.neighbours

    def product(i):
        r, u = i % N, N if i >= N else 0
        row = {i: {i: 8}}
        for s, g in nbrs[r]:
            row[s] = {i: 1, s: 1, g + u: -1}
            if not t_only:
                row[s + N] = {i: 1, s + N: 1, g + N - u: -1}
        return row

    def form(i):
        row = {i: 4}
        for s, _ in nbrs[i % N]:
            row[s] = Q(1, 2)
            if not t_only:
                row[s + N] = Q(1, 2)
        return row

    return product, form


def rule_rows(rules, dim):
    """Dict rows of per-pair rules: row i over the j with a non-zero
    value."""
    product, form = rules

    def product_row(i):
        return {j: p for j in range(dim) if (p := product(i, j))}

    def form_row(i):
        return {j: v for j in range(dim) if (v := form(i, j))}
    return product_row, form_row


def encoding(row, den):
    """A dict row over den: (den, {j: entry}) in j order, a product entry
    the terms (k, numerator) in k order, a form entry the numerator."""
    def num(v):
        assert (v * den).denominator == 1
        return int(v * den)

    return den, {j: (num(v) if not isinstance(v, dict) else
                     tuple((k, num(c)) for k, c in sorted(v.items()) if c))
                 for j, v in sorted(row.items())}


# the denominators of the (product, form) tables: A and T write the form
# value 1/2 as the numerator 1 over 2, B+ its forms 1/2 tr(X'S Y'S) + ...
# over 2
TABLE_DENS = {"A": (1, 2), "T": (1, 2), "B+": (1, 2)}


@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "A5", "D4", "D5",
                                  "E6", "A2+A1", "A1^3"])
def test_rows_equal_their_encoding(kind, spec):
    """Every row of the builder's tables, in j order, is the encoding of
    the paper's dict rules; for A and T both the per-pair rules and the
    dict rows over the neighbour lists."""
    rs = system(spec)
    alg = KINDS[kind](spec)
    refs = [rule_rows(RULES[kind](rs), alg.dim)]
    if kind != "B+":
        refs.append(root_algebra_rows(rs, kind == "T"))
    (pden, prows), (fden, frows) = alg.product_table, alg.form_table
    assert (pden, fden) == TABLE_DENS[kind]
    assert len(prows) == len(frows) == alg.dim
    for i in range(alg.dim):
        assert list(prows[i]) == sorted(prows[i])
        assert list(frows[i]) == sorted(frows[i])
        for product, form in refs:
            assert (pden, prows[i]) == encoding(product(i), pden), i
            assert (fden, frows[i]) == encoding(form(i), fden), i


@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("spec", ["A1", "A3", "D4", "E6", "A2+A1"])
def test_basis_tables_match_the_rules(kind, spec):
    alg = KINDS[kind](spec)
    product, form = RULES[kind](system(spec))
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert alg.basis_product(i, j) == product(i, j), (i, j)
            assert basis_form(alg, i, j) == form(i, j), (i, j)


@pytest.mark.parametrize("kind", ["A", "T", "B+", "json"])
def test_each_table_source_is_called_once(kind, monkeypatch):
    """No table is built with the algebra, and each is built once, however
    many of its rows and elements are read; "json" is A read back from its
    JSON table."""
    calls = Counter()

    def counted(name, source):
        def table():
            calls[name] += 1
            return source()
        return table

    init = StructureAlgebra.__init__

    def counted_init(alg, labels, product, form):
        init(alg, labels, counted("product", product), counted("form", form))

    rs = build("D4")
    data = build_A(rs).alg.to_json()
    # patched on the base class, so B+'s subclass is counted too
    monkeypatch.setattr(StructureAlgebra, "__init__", counted_init)
    if kind == "json":
        alg = StructureAlgebra.from_json(data)
    else:
        alg = BUILDERS[kind](rs)
    assert not calls
    x = alg.element([1] * alg.dim)
    for i in range(alg.dim):
        alg.basis_product(i, i), alg.neighbours(i)
    alg.to_json(), alg.to_json(), alg.form_matrix([x, x])
    alg.find_identity(), x * x, x.form(x), alg.first_unfixed_basis(x)
    assert calls == {"product": 1, "form": 1}


@pytest.mark.parametrize("kind", ["A", "T", "B+"])
@pytest.mark.parametrize("spec", ["A3", "D4", "E6", "A2+A1"])
def test_each_pair_entry_is_built_once(kind, spec):
    """The product tables of A, T and B+ hold row i's entry for j as the
    same object as row j's entry for i, one object per pair i <= j with a
    non-zero product, and every row has its j in increasing order."""
    alg = BUILDERS[kind](build(spec))
    rows = alg.product_table[1]
    for i, row in enumerate(rows):
        assert list(row) == sorted(row), i
        for j, e in row.items():
            assert rows[j][i] is e, (i, j)
    product, _ = RULES[kind](build(spec))
    pairs = sum(1 for i in range(alg.dim) for j in range(i, alg.dim)
                if product(i, j))
    assert len({id(e) for row in rows for e in row.values()}) == pairs


class CountedList(list):
    """A list that counts the reads of its items."""
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_unread_rows_cost_nothing(monkeypatch):
    """build_A reads no neighbour list for A(Phi)'s table, and neither does
    Lemma 4.2 on A6^4, which reads only closed-form idempotents of A(Phi);
    the first row read builds the whole table."""
    lists = []
    make = rootalgebra._make_algebra

    def counted_make(rs, t_only):
        lists.append(CountedList(rs.neighbours))
        return make(SimpleNamespace(N=rs.N, neighbours=lists[-1]), t_only)

    monkeypatch.setattr(rootalgebra, "_make_algebra", counted_make)
    ra = build_A(build("A6^4"))
    rep = lemma_4_2_subalgebra(catalog_entry("A6^4"))
    assert rep.checks == {"dimension": 28, "associative": True}
    assert len(lists) == 2 and not any(n.reads for n in lists)
    ra.alg.basis_product(0, 0)  # the counter sees the table built
    assert lists[0].reads


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


def expand_form(x, y, form):
    return sum((a * b * form(i, j) for i, a in x.coeffs.items()
                for j, b in y.coeffs.items()), Q(0))


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_root_algebras_match_expansion(kind, data):
    alg = KINDS[kind](data.draw(st.sampled_from(SPECS)))
    x, y = data.draw(elements(alg)), data.draw(elements(alg))
    assert (x * y).coeffs == expand_product(x, y, alg.basis_product)
    assert x.form(y) == expand_form(
        x, y, lambda i, j: basis_form(alg, i, j))


MIXED_TABLE = {"basis": ["a", "b", "c", "d"],
               "products": [[0, 0, [[0, "3"], [2, "-2"]]],
                            [0, 1, [[1, "1/2"], [3, "4"]]],
                            [0, 3, [[2, "5/6"]]],
                            [1, 2, [[0, "-7/3"], [2, "3"]]],
                            [2, 2, [[1, "-2"]]],
                            [2, 3, [[3, "1/4"]]]],
               "gram": [["3", "1/2", "0", "2"], ["1/2", "0", "-2", "0"],
                        ["0", "-2", "5/3", "-1/4"], ["2", "0", "-1/4", "1"]]}


def mixed_table_rules():
    """The products and forms of MIXED_TABLE per basis pair."""
    prods = {(i, j): {k: q_parse(v) for k, v in terms}
             for i, j, terms in MIXED_TABLE["products"]}
    return (lambda i, j: prods.get((min(i, j), max(i, j)), {}),
            lambda i, j: q_parse(MIXED_TABLE["gram"][i][j]))


@pytest.mark.parametrize("case", ["A D4", "T E6", "json"])
def test_bilinear_walks_either_side(case):
    """bilinear meets a row with the other operand from the shorter of the
    two: a one-term operand against a dense one walks the row, two one-term
    operands walk the operand.  Both, in both orders, against the plain
    expansion, on A(D4), T(E6) and a table over mixed denominators."""
    if case == "json":
        alg = StructureAlgebra.from_json(MIXED_TABLE)
        product, form = mixed_table_rules()
    else:
        kind, spec = case.split()
        alg = KINDS[kind](spec)
        product, form = root_algebra_rules(system(spec))
    n = alg.dim
    dense = alg.element({k: Q((-1) ** k * (k + 2), k % 5 + 1)
                         for k in range(n)})
    one = [alg.element({i: Q(i + 1, 3)}) for i in range(n)]
    pairs = [(x, dense) for x in one]
    pairs += [(one[i], y) for i in range(n) for y in one
              if len(alg.product_table[1][i]) > 1]
    for x, y in pairs:
        for a, b in ((x, y), (y, x)):
            assert (a * b).coeffs == expand_product(a, b, product)
            assert a.form(b) == expand_form(a, b, form)


def image_of_basis(p, i):
    """phi(t(alpha)) = alpha^2/2 - x_alpha, phi(u(alpha)) = alpha^2/2 +
    x_alpha, in rationals."""
    bp, N = p.codomain, p.codomain.rs.N
    r = i % N
    coeffs = {k: Q(v, 2) for k, v in bp._sq[r].items()}
    coeffs[bp.ns + r] = -1 if i < N else 1
    return bp.element(coeffs)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_phi_apply_matches_sum_of_basis_images(data):
    p = phi(data.draw(st.sampled_from(SPECS)))
    x = data.draw(elements(p.domain.alg))
    expected = {}
    for i, c in x.coeffs.items():
        for k, v in image_of_basis(p, i).coeffs.items():
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
    # The reference reads the JSON itself, not the tables built from it.
    prods = {(i, j): {k: q_parse(v) for k, v in terms}
             for i, j, terms in table["products"]}

    def basis_product(i, j):
        return prods.get((min(i, j), max(i, j)), {})

    def table_form(i, j):
        return q_parse(table["gram"][i][j])

    x, y = data.draw(elements(alg)), data.draw(elements(alg))
    assert (x * y).coeffs == expand_product(x, y, basis_product)
    assert x.form(y) == expand_form(x, y, table_form)
    assert json_document(alg) == table


@st.composite
def scrambled(draw, table):
    """table written another way: pairs in any order and either way round,
    terms in any order, with zero terms added."""
    dim = len(table["basis"])
    products = []
    for i, j, terms in table["products"]:
        free = [k for k in range(dim) if k not in {k for k, _ in terms}]
        zeros = (draw(st.lists(st.sampled_from(free), unique=True)) if free
                 else [])
        terms = draw(st.permutations(terms + [[k, "0"] for k in zeros]))
        products.append([j, i, terms] if draw(st.booleans()) else
                        [i, j, terms])
    return {**table, "products": draw(st.permutations(products))}


@given(data=st.data(), table=json_tables())
@settings(max_examples=80, deadline=None)
def test_from_json_matches_the_mapping_path(data, table):
    """from_json on a non-canonical table (mixed denominators from
    json_tables) builds the tables that the reference encoder builds from
    the same table as Mappings keyed by (i, j), i <= j."""
    alg = StructureAlgebra.from_json(data.draw(scrambled(table)))
    dim = len(table["basis"])
    ref = StructureAlgebra(table["basis"], *encode_rows(
        {(i, j): {k: q_parse(v) for k, v in terms}
         for i, j, terms in table["products"]},
        {(i, j): q_parse(table["gram"][i][j])
         for i in range(dim) for j in range(i, dim)}, dim))
    assert alg.product_table == ref.product_table
    assert ([list(row) for row in alg.product_table[1]]
            == [list(row) for row in ref.product_table[1]])
    assert alg.form_table == ref.form_table
    assert json_document(alg) == json_document(ref) == table


@pytest.mark.parametrize("kind,spec", [("A", "D4"), ("B+", "A3"),
                                       ("json", "mixed")])
def test_from_json_shares_each_pair_entry(kind, spec):
    """The rows of a pair hold one entry object, also where from_json
    rescales the entries of a table over mixed denominators."""
    alg = StructureAlgebra.from_json(
        MIXED_TABLE if kind == "json" else KINDS[kind](spec).to_json())
    rows = alg.product_table[1]
    for i, row in enumerate(rows):
        for j, e in row.items():
            assert rows[j][i] is e


# sha256 of json.dumps(to_json()), recorded from the encoder that built a
# rational per entry, so the integer path must reproduce its bytes
GOLDEN_JSON = {
    ("A", "A3"):
        "4588e9b273c6757d225a3f28ee2fe40730a397706726e51c289ffa14ffef97a5",
    ("T", "D4"):
        "787e0fd7064ccbab98df49357f576c7e489b4477c2c4d32b7b034654754afa1a",
    ("B+", "A2"):
        "349cfbb9193b9292e226a3088410105ff56411c76c7614101b7f8c48b846ed19",
    ("A", "A1^3"):
        "8526a4a0e808bb9feef606a395314d5f787b49d2298a19230c0d5e03bb9e3809",
}


@pytest.mark.parametrize("kind,spec", sorted(GOLDEN_JSON))
def test_to_json_matches_golden_bytes(kind, spec):
    table = KINDS[kind](spec).to_json()
    digest = hashlib.sha256(json.dumps(table).encode()).hexdigest()
    assert digest == GOLDEN_JSON[kind, spec]


def test_from_json_mixes_ints_and_rationals():
    """Integral strings, negative ones included, and rationals in one
    table: products, forms and the round trip follow the JSON itself."""
    table = {"basis": ["a", "b", "c"],
             "products": [[0, 0, [[0, "3"], [2, "-2"]]],
                          [0, 1, [[1, "1/2"]]],
                          [1, 2, [[0, "-7/3"], [2, "3"]]],
                          [2, 2, [[1, "-2"]]]],
             "gram": [["3", "0", "-7/3"], ["0", "1/2", "-2"],
                      ["-7/3", "-2", "0"]]}
    alg = StructureAlgebra.from_json(table)
    prods = {(i, j): {k: q_parse(v) for k, v in terms}
             for i, j, terms in table["products"]}
    for i in range(3):
        for j in range(3):
            assert alg.basis_product(i, j) == prods.get((min(i, j),
                                                         max(i, j)), {})
            assert basis_form(alg, i, j) == q_parse(table["gram"][i][j])
    x, y = alg.element({0: Q(1, 2), 1: -3}), alg.element({1: 2, 2: Q(5, 7)})
    assert (x * y).coeffs == expand_product(
        x, y, lambda i, j: prods.get((min(i, j), max(i, j)), {}))
    assert x.form(y) == expand_form(
        x, y, lambda i, j: q_parse(table["gram"][i][j]))
    assert json_document(alg) == table
    # integer numerators over each table's lcm, 6 for both
    assert alg.product_table == (6, [
        {0: ((0, 18), (2, -12)), 1: ((1, 3),)},
        {0: ((1, 3),), 2: ((0, -14), (2, 18))},
        {1: ((0, -14), (2, 18)), 2: ((1, -12),)}])
    assert alg.form_table == (6, [
        {0: 18, 2: -14}, {1: 3, 2: -12}, {0: -14, 1: -12}])
    assert {type(v) for row in alg.product_table[1] for e in row.values()
            for _, v in e} == {int}


# -- the identity solve against the full dense system -------------------------

def reference_identity(alg):
    """Solve x * b_j = b_j for every j and every coefficient k at once with
    QMatrix.solve; None unless the solution is unique and fixes every basis
    vector."""
    dim = alg.dim
    prods = [[alg.basis_product(i, j) for i in range(dim)]
             for j in range(dim)]
    rows = [[prods[j][i].get(k, 0) for i in range(dim)]
            for j in range(dim) for k in range(dim)]
    rhs = [int(j == k) for j in range(dim) for k in range(dim)]
    m = QMatrix(rows)
    x = m.solve(rhs)
    if x is None or m.rank() < dim:
        return None
    e = alg.element(x)
    fixed = all(e * basis_element(alg, j) == basis_element(alg, j)
                for j in range(dim))
    return e if fixed else None


IDENTITY_SPECS = ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "A1^3")


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("spec", IDENTITY_SPECS)
def test_find_identity_matches_dense_solve(kind, spec):
    alg = KINDS[kind](spec)
    assert alg.find_identity() == reference_identity(alg)


@st.composite
def unital_tables(draw):
    """A json_tables() algebra with a unit u adjoined (u u = u, u b = b),
    written in the basis f_a = b_a + c_a u, f_u = u + sum_a d_a b_a for
    random rationals c, d: its identity has non-integer coefficients."""
    base = StructureAlgebra.from_json(draw(json_tables()))
    n = base.dim
    c = draw(st.lists(rationals, min_size=n, max_size=n))
    d = draw(st.lists(rationals, min_size=n, max_size=n))
    if sum(x * y for x, y in zip(c, d)) == 1:  # keep the change invertible
        d = [Q(0)] * n
    # new basis vectors in old coordinates b_0..b_{n-1}, u = b_n
    new = [{a: Q(1), n: c[a]} for a in range(n)]
    new.append({**{a: d[a] for a in range(n)}, n: Q(1)})
    change = QMatrix([[v.get(i, 0) for v in new] for i in range(n + 1)])

    def old_product(i, j):
        if i == n or j == n:
            return {j if i == n else i: Q(1)}
        return base.basis_product(i, j)

    def in_new_basis(v):
        return change.solve([v.get(i, 0) for i in range(n + 1)])

    table = {}
    for a in range(n + 1):
        for b in range(a, n + 1):
            out = {}
            for i, x in new[a].items():
                for j, y in new[b].items():
                    for k, z in old_product(i, j).items():
                        out[k] = out.get(k, 0) + x * y * z
            coords = in_new_basis(out)
            table[a, b] = {k: v for k, v in enumerate(coords) if v}
    return StructureAlgebra([f"f{a}" for a in range(n + 1)],
                            *encode_rows(table, {}, n + 1))


@given(table=json_tables())
@settings(max_examples=80, deadline=None)
def test_find_identity_matches_dense_solve_on_tables(table):
    alg = StructureAlgebra.from_json(table)
    assert alg.find_identity() == reference_identity(alg)


@given(alg=unital_tables())
@settings(max_examples=60, deadline=None)
def test_find_identity_finds_an_adjoined_unit(alg):
    ident = alg.find_identity()
    assert ident is not None and ident == reference_identity(alg)


def test_find_identity_needs_a_held_equation(monkeypatch):
    """In Q[x]/(x^3) the forest is empty and the diagonal equations give
    only a_1 = 1: full rank needs a held equation with k != j, such as the
    coefficient a_x = 0 of x in y * 1 = 1."""
    fed = []
    add = SparseSolver.add_equation

    def recorded(solver, row, rhs):
        fed.append((dict(row), rhs))
        return add(solver, row, rhs)
    monkeypatch.setattr(SparseSolver, "add_equation", recorded)
    alg = truncated_polynomials()
    assert alg.find_identity() == basis_element(alg, 0)
    assert alg.find_identity() == reference_identity(alg)
    assert ({1: 1}, 0) in fed


@pytest.mark.parametrize("spec", ["A5", "D5"])
def test_find_identity_feeds_few_equations(spec, monkeypatch):
    """The spanning forest keeps the solver to at most 2 dim equations."""
    calls = Counter()
    add = SparseSolver.add_equation

    def counted(solver, row, rhs):
        calls["equations"] += 1
        return add(solver, row, rhs)
    monkeypatch.setattr(SparseSolver, "add_equation", counted)
    ra = build_A(build(spec))
    assert ra.alg.find_identity() == delta(ra)
    assert 0 < calls["equations"] <= 2 * ra.alg.dim


def identity(kind, spec):
    """delta of A(spec) or epsilon of T(spec)."""
    return (delta(algebra_A(spec)) if kind == "A"
            else rootalgebra.epsilon(algebra_T(spec)))


@pytest.mark.parametrize("kind,spec,trees", [
    ("A", "E6", 1), ("T", "E6", 1), ("A", "E8", 1), ("T", "E8", 1),
    ("A", "E6^2", 2), ("T", "E6^2", 2), ("A", "D4+A2", 2), ("T", "D4+A2", 2),
    ("A", "A2^12", 12), ("T", "A2^12", 12),
    # t(a) and u(a) of A1 meet in no equation c (x_a - x_b) = 0
    ("A", "A1^24", 48), ("T", "A1^24", 24)])
def test_find_identity_solves_one_unknown_per_tree(kind, spec, trees,
                                                   monkeypatch):
    """One solver, with one unknown per tree of the union-find forest:
    one per component of A and T, two for A(A1)."""
    sizes = []
    init = SparseSolver.__init__

    def recorded(solver, n):
        sizes.append(n)
        init(solver, n)
    monkeypatch.setattr(SparseSolver, "__init__", recorded)
    assert KINDS[kind](spec).find_identity() == identity(kind, spec)
    assert sizes == [trees]


def contracted_held_equations(alg):
    """The equations of every row that are not c (x_a - x_b) = 0, in the
    order find_identity meets them, with their coefficients summed over the
    trees of the forest those equations make, numbered by first member."""
    den, rows = alg.product_table
    parent = list(range(alg.dim))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    held = []
    for j, row in enumerate(rows):
        cols = {}
        for i, terms in row.items():
            for k, v in terms:
                cols.setdefault(k, []).append((i, v))
        for k, c in cols.items():
            if len(c) == 2 and k != j and c[0][1] == -c[1][1]:
                parent[root(c[0][0])] = root(c[1][0])
            else:
                held.append((c, den if k == j else 0))
    roots = [root(a) for a in range(alg.dim)]
    tree = {r: t for t, r in enumerate(dict.fromkeys(roots))}
    out = []
    for c, rhs in held:
        sums = Counter()
        for a, v in c:
            sums[tree[roots[a]]] += v
        out.append(({t: v for t, v in sums.items() if v}, rhs))
    return out


@pytest.mark.parametrize("kind,spec,one_tree", [
    # one tree at an early row: m = 1, so the first contracted equation,
    # the diagonal of row 0, fixes the rank and ends the solve
    ("A", "E6", True), ("T", "D5", True),
    # a direct sum reads every row, so most held equations go unfed
    ("A", "E6^2", False), ("A", "A3+A1", False),
    # no tree joins: every unknown is its own tree
    ("Q[x]/(x^3)", None, False)])
def test_find_identity_contracts_each_held_equation_once(kind, spec, one_tree,
                                                         monkeypatch):
    """The solver is fed the held equations contracted onto the trees, in
    order and each once, until its rank is the number of trees."""
    if spec is None:
        alg = truncated_polynomials()
        ident = basis_element(alg, 0)
    else:
        alg, ident = KINDS[kind](spec), identity(kind, spec)
    fed = []
    add = SparseSolver.add_equation

    def recorded(solver, row, rhs):
        fed.append((dict(row), rhs))
        return add(solver, row, rhs)
    monkeypatch.setattr(SparseSolver, "add_equation", recorded)
    assert alg.find_identity() == ident
    expected = contracted_held_equations(alg)
    assert 0 < len(fed) <= len(expected)
    assert fed == expected[:len(fed)]
    assert (len(fed) == 1) is one_tree


COMPONENTS = ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6")


@given(parts=st.lists(st.sampled_from(COMPONENTS), min_size=1, max_size=3))
@settings(max_examples=20, deadline=None)
def test_random_direct_sums_solve_and_round_trip(parts):
    """On a direct sum of 1-3 components: the identities of A and T are
    delta and epsilon; the JSON round trip gives back the table; to_json
    makes one term list per distinct term."""
    rs = build("+".join(parts))
    ra, rt = build_A(rs), build_T(rs)
    assert ra.alg.find_identity() == delta(ra)
    assert rt.alg.find_identity() == rootalgebra.epsilon(rt)
    for alg in (ra.alg, rt.alg):
        table = alg.to_json()
        back = StructureAlgebra.from_json(json.loads(json.dumps(table)))
        assert back.to_json() == table
        terms = [t for _, _, ts in table["products"] for t in ts]
        assert len({id(t) for t in terms}) == len({tuple(t) for t in terms})


@given(parts=st.lists(st.sampled_from(COMPONENTS), min_size=1, max_size=3))
@settings(max_examples=20, deadline=None)
def test_random_direct_sums_phi_rank(parts):
    """On a direct sum of 1-3 components phi's counted rank is the dense
    rank and the sum over the components c of l_c (l_c + 1) / 2 + N_c: it
    is 2N iff every component is of type A, and dim B+ iff there is one
    component."""
    rs = build("+".join(parts))
    p = PhiMap(build_A(rs), build_bplus(rs))
    assert p.rank == phi_matrix(p).rank() == sum(
        c.rank * (c.rank + 1) // 2 + c.num_positive for c in rs.components)
    assert (p.rank == 2 * rs.N) == all(c.family == "A" for c in rs.components)
    assert (p.rank == p.codomain.dim) == (len(parts) == 1)


@given(parts=st.lists(st.sampled_from(COMPONENTS), min_size=1, max_size=3),
       data=st.data())
@settings(max_examples=20, deadline=None)
def test_random_chains_have_the_closed_charges(parts, data):
    """On a direct sum of 1-3 components, the prefixes of a random order of
    the simple roots cut at random points, so that a set may have several
    connected parts: generalized_chain_decompose's charges are
    verify.closed_charges', and `decompose --chain` on every prefix up to
    the last cut exits 0 by thm2.7."""
    spec = "+".join(parts)
    rs = system(spec)
    order = data.draw(st.permutations(range(rs.l)))
    cuts = sorted(data.draw(st.sets(st.integers(1, rs.l), min_size=1)))
    chain = [frozenset(order[:c]) for c in cuts]
    dec = generalized_chain_decompose(algebra_A(spec), chain)
    assert dec.charges == [c for c, _ in verify.closed_charges(rs, chain,
                                                               rs.l)]
    argv = ["decompose", spec, "--json",
            "--chain", ",".join(map(str, order[:cuts[-1]]))]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0


# -- associativity of a span: structure constants against element triples ---

def direct_associative_span(alg, elements):
    """The definition: independence and closure by exact ranks, then
    (e_i e_j) e_k = e_i (e_j e_k) on every triple of element products."""
    def rank(vectors):
        return QMatrix([[v.coeffs.get(c, 0) for c in range(alg.dim)]
                        for v in vectors]).rank()

    for idx in range(len(elements)):
        if rank(elements[:idx + 1]) <= idx:
            raise ValueError(
                f"elements are linearly dependent: vector #{idx} lies "
                "in the span of its predecessors")
    n = len(elements)
    prods = [[a * b for b in elements] for a in elements]
    if any(rank(elements + [p]) > n for row in prods for p in row):
        return False
    return all(prods[i][j] * elements[k] == elements[i] * prods[j][k]
               for i, j, k in itertools.product(range(n), repeat=3))


def same_verdict(alg, elements):
    """The verdict of both checks, which must agree; a ValueError counts
    as its text."""
    def outcome(check):
        try:
            return check()
        except ValueError as exc:
            return str(exc)
    verdict = outcome(lambda: alg.is_associative_span(elements))
    assert verdict == outcome(lambda: direct_associative_span(alg, elements))
    return verdict


def chain_images(spec):
    p = phi(spec)
    return p.codomain, [p.apply(e) for e in
                            coset_chain_decompose(p.domain).idempotents]


@st.composite
def span_inputs(draw):
    """(algebra, elements): a random table with basis subsets (the whole
    basis often), random combinations or duplicates, or B+ images of type-A
    chain idempotents, some dropped and a basis vector sometimes added."""
    kind = draw(st.sampled_from(["basis", "combination", "images"]))
    if kind == "images":
        alg, images = chain_images(draw(st.sampled_from(["A1", "A2", "A3",
                                                         "A4"])))
        keep = draw(st.lists(st.sampled_from(images), min_size=1,
                             unique_by=lambda e: e.key()))
        if draw(st.booleans()):
            keep.append(basis_element(alg,
                                      draw(st.integers(0, alg.dim - 1))))
        return alg, keep
    alg = StructureAlgebra.from_json(draw(json_tables()))
    if kind == "basis":
        idx = draw(st.one_of(st.just(list(range(alg.dim))),
                             st.lists(st.integers(0, alg.dim - 1),
                                      min_size=1, max_size=alg.dim)))
        return alg, [basis_element(alg, i) for i in idx]
    xs = draw(st.lists(elements(alg), min_size=1, max_size=3))
    return alg, xs + draw(st.lists(st.sampled_from(xs), max_size=1))


@given(span_inputs())
@settings(max_examples=120, deadline=None)
def test_associative_span_matches_direct(inputs):
    same_verdict(*inputs)


def truncated_polynomials():
    """Q[x]/(x^3) on 1, x, x^2: commutative and associative."""
    return StructureAlgebra(["1", "x", "x2"], *encode_rows(
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 1): {2: 1}},
        {(0, 0): 1, (1, 1): 1, (2, 2): 1}, 3))


@pytest.mark.parametrize("make,expected", [
    # products such as (1+x)x = x + x^2 are neither 0 nor an element
    (lambda: (truncated_polynomials(), [{0: 1, 1: 1}, {1: 1}, {2: 1}]), True),
    # closed, but t t products of A(A2) are not associative
    (lambda: (algebra_A("A2").alg, [{i: 1} for i in range(6)]), False)])
def test_associative_span_coordinate_path(make, expected, monkeypatch):
    alg, coeffs = make()
    reduced = Counter()
    reduce = SparseSolver.reduce

    def counted(solver, row):
        reduced["calls"] += 1
        return reduce(solver, row)
    monkeypatch.setattr(SparseSolver, "reduce", counted)
    assert same_verdict(alg, [alg.element(c) for c in coeffs]) is expected
    assert reduced["calls"] > 0


def test_associative_span_one_sided_triple():
    """x x = z, z y = w and x y = 0: (x x) y = w but x (x y) = 0, a triple
    where only the left side has a term."""
    alg = StructureAlgebra(["x", "y", "z", "w"], *encode_rows(
        {(0, 0): {2: 1}, (1, 2): {3: 1}}, {}, 4))
    assert same_verdict(alg, [basis_element(alg, i)
                              for i in range(4)]) is False


def test_first_unfixed_basis_sees_every_term():
    """(1+x) 1 = 1 + x has coefficient 1 on 1 but is not 1; 1 + x fixes
    x^2 only."""
    alg = truncated_polynomials()
    one, one_plus_x = alg.element({0: 1}), alg.element({0: 1, 1: 1})
    assert alg.first_unfixed_basis(one) is None
    assert alg.first_unfixed_basis(one_plus_x) == 0
    assert alg.first_unfixed_basis(one_plus_x, [2]) is None
    assert alg.first_unfixed_basis(alg.zero(), [2]) == 2


# -- chain decomposition: verify's identity certificate against direct checks

def direct_decomposition_checks(ra, idems, total):
    """Every idempotent squared and every pair multiplied and paired, keyed
    by the certificate's clauses."""
    s = ra.alg.zero()
    for e in idems:
        s = s + e
    pairs = list(itertools.combinations(idems, 2))
    return {"sum to identity": s == total,
            "pairwise products": (all(is_idempotent(e) for e in idems)
                                  and all((a * b).is_zero()
                                          for a, b in pairs)),
            "pairwise form": all(a.form(b) == 0 for a, b in pairs)}


def certificate_and_span(ra, dec):
    """certificate with its span clause popped: (the other three, span)."""
    cert = certificate(ra, dec)
    n = len(dec.idempotents)
    return cert, cert.pop(f"span of the {n} idempotents is associative")


def solved_t_identity(ra, roots):
    """Identity of the t-span of a closed sub-system, by the exact solve."""
    pos = {r: k for k, r in enumerate(roots)}

    def product(k):
        row = {k: {k: 8}}
        for s, g in ra.rs.neighbours[roots[k]]:
            if s in pos:
                row[pos[s]] = {k: 1, pos[s]: 1, pos[g]: -1}
        return row

    sub = StructureAlgebra([str(r) for r in roots],
                           *encode_rows(product, {}, len(roots)))
    ident = sub.find_identity()
    return ra.alg.element({roots[k]: c for k, c in ident.coeffs.items()})


CHAINS = [("D4", [[0], [0, 1], [0, 1, 2, 3]]),
          ("D5", [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4]]),
          ("E6", [[0], [0, 2], [0, 2, 3], [0, 2, 3, 4], [0, 2, 3, 4, 5],
                  list(range(6))]),
          # sets with two components: {0, 2} in D4, {0, 5} in E6
          ("D4", [[0, 2], [0, 2, 3], [0, 1, 2, 3]]),
          ("E6", [[0, 5], [0, 1, 5], [0, 1, 2, 4, 5], list(range(6))])]
# a type-A spec without a chain runs the coset chains
CASES = [(spec, None) for spec in ("A1", "A2", "A3", "A4", "A5", "A6")]
CASES += CHAINS


def case_id(case):
    spec, chain = case
    return spec if chain is None else f"{spec}:{chain[0]}"


@pytest.mark.parametrize("spec,chain", CASES, ids=map(case_id, CASES))
def test_certificates_match_direct_checks(spec, chain):
    ra = algebra_A(spec)
    dec = (coset_chain_decompose(ra) if chain is None
           else generalized_chain_decompose(ra, chain))
    cert, span = certificate_and_span(ra, dec)
    assert cert == direct_decomposition_checks(ra, dec.idempotents, delta(ra))
    assert all(cert.values()) and span


@pytest.mark.parametrize("spec,chain", CHAINS, ids=map(case_id, CHAINS))
def test_closed_form_epsilon_equals_solved(spec, chain):
    ra = algebra_A(spec)
    for s in chain:
        roots = rootalgebra._sub_positive_roots(ra.rs, frozenset(s))
        assert (rootalgebra._closed_identity(ra, s)
                == solved_t_identity(ra, roots)), s


def break_closed_identity(monkeypatch, step):
    """Change one coefficient of the closed-form t-span identity of the
    simple-root set step."""
    closed = rootalgebra._closed_identity

    def broken(ra, simple, with_u=False):
        e = closed(ra, simple, with_u)
        if frozenset(simple) != step or with_u:
            return e
        coeffs = dict(e.coeffs)
        coeffs[min(coeffs)] += Q(1, 7)  # one coefficient changed
        return ra.alg.element(coeffs)
    monkeypatch.setattr(rootalgebra, "_closed_identity", broken)


@pytest.mark.parametrize("spec,chain", CASES, ids=map(case_id, CASES))
def test_broken_epsilon_fails_both_checks(spec, chain, monkeypatch):
    ra = algebra_A(spec)
    chain = [frozenset(s) for s in chain
             or [range(i) for i in range(1, ra.rs.l + 1)]]
    break_closed_identity(monkeypatch, chain[len(chain) // 2])
    dec = rootalgebra._chain_decompose(ra, [(chain, range(ra.rs.l))], "")
    cert, span = certificate_and_span(ra, dec)
    assert cert == direct_decomposition_checks(ra, dec.idempotents, delta(ra))
    assert not cert["pairwise products"] and not span
    # the clause names the broken eps_k and a t it does not fix
    rep = verify.VerifyReport("certificate")
    verify.certify_chain(rep, ra, dec)
    [products] = [x for d, _, x in rep.clauses if d == "pairwise products"]
    assert products.startswith(f"block 0: eps_{len(chain) // 2 + 1} * t(")


# -- thm2.7's associativity clause: the certificate against the triples ------

@pytest.mark.parametrize("spec", [f"A{l}" for l in range(1, 9)] + ["D4", "E6"])
def test_pairwise_products_certify_associative_span(spec):
    """thm2.7 reads associativity from the pairwise products clause,
    e_i e_j = [i = j] e_i; the exhaustive check on the default chains
    agrees."""
    ra = algebra_A(spec)
    dec = coset_chain_decompose(ra)
    assert certificate_and_span(ra, dec)[1] is True
    assert ra.alg.is_associative_span(dec.idempotents) is True


def test_broken_idempotent_fails_certificate_and_span(monkeypatch):
    break_closed_identity(monkeypatch, frozenset({0, 1}))
    ra = algebra_A("A3")
    dec = coset_chain_decompose(ra)
    assert certificate_and_span(ra, dec)[1] is False
    assert ra.alg.is_associative_span(dec.idempotents) is False
    [rep] = verify.run_target("thm2.7", "A3")
    assoc = [ok for d, ok, _ in rep.clauses if "is associative" in d]
    assert assoc == [False]


# -- Lemma 4.2's certificate: integer pairwise products against the span ----

def first_failing_pair(elements):
    """The first pair i <= j with e_i e_j != [i = j] e_i, from element
    products and equality."""
    zero, n = elements[0].algebra.zero(), len(elements)
    return next(((i, j) for i in range(n) for j in range(i, n)
                 if elements[i] * elements[j]
                 != (elements[i] if i == j else zero)), None)


def span_verdict(alg, elements):
    try:
        return alg.is_associative_span(elements)
    except DependentError:
        return False


@functools.cache
def lemma_images(name):
    rs = catalog_entry(name).root_system()
    p = PhiMap(build_A(rs), build_bplus(rs))
    return p.codomain, [p.apply(e) for e in chain_idempotents(p.domain)]


def changed_coefficient(e):
    k = min(e.coeffs)
    return e.algebra.element({**e.coeffs, k: e.coeffs[k] + Q(1, 3)})


BROKEN_IMAGES = {
    None: lambda es: es,
    "zero": lambda es: es[:-1] + [es[-1].algebra.zero()],
    "duplicate": lambda es: es[:-1] + [es[-2]],
    "2e_i": lambda es: es[:-1] + [es[0] + es[0]],
    "e_i+e_j": lambda es: es[:-1] + [es[0] + es[1]],
    "coefficient": lambda es: es[:-1] + [changed_coefficient(es[-1])]}


@pytest.mark.parametrize("name,broken", [
    *((n, None) for n in ("A1^24", "A2^12", "A3^8", "D4^6")),
    *((n, b) for n in ("A3^8", "D4^6") for b in BROKEN_IMAGES if b)])
def test_idempotent_certificate_matches_span(name, broken):
    """first_idempotent_failure on the non-zero chain images, as Lemma 4.2
    runs it, agrees with is_associative_span, a dependence counting as a
    failure, and returns the first pair that fails by element products.
    The last image is broken: made 0, which leaves the span, or a copy of
    the one before it, 2 e_0, e_0 + e_1, all dependent, or changed in one
    coefficient by 1/3, which leaves the span not closed."""
    alg, images = lemma_images(name)
    es = [e for e in BROKEN_IMAGES[broken](images) if not e.is_zero()]
    pair = alg.first_idempotent_failure(es)
    assert pair == first_failing_pair(es)
    assert (pair is None) is span_verdict(alg, es) is (broken in (None,
                                                                  "zero"))
    if broken == "duplicate":
        assert pair == (len(es) - 2, len(es) - 1)


def test_idempotent_certificate_is_stronger_than_the_span():
    """2 e_0 in place of e_0 spans the same associative algebra, but is not
    an idempotent: the certificate fails on (0, 0), which is what Lemma
    4.2 asks of the images of idempotents."""
    alg, images = lemma_images("A3^8")
    es = [images[0] + images[0], *images[1:]]
    assert alg.is_associative_span(es) is True
    assert alg.first_idempotent_failure(es) == (0, 0) == first_failing_pair(es)


@pytest.mark.parametrize("spec", ["A1", "A3", "D4", "D5", "E6", "E7", "E8",
                                  "A2+A1", "D4^2"])
def test_bplus_product_bound_covers_its_table(spec):
    """B+'s bound K, read from the data of its kernel, is at least the
    largest numerator of its built product table, which the default bound
    reads."""
    B = bplus(spec)
    K, den = B.product_bound
    table = StructureAlgebra(B.basis_labels, lambda: B.product_table, None)
    assert den == table.product_bound[1] == 1
    assert K >= table.product_bound[0] > 1


@pytest.mark.parametrize("broken", list(BROKEN_IMAGES) + ["scaled"])
def test_packed_certificate_names_the_first_failing_pair(broken):
    """The packed certificate against element products on the A6^4 images,
    broken as in BROKEN_IMAGES, and with the last image changed by 10^-12
    in one coefficient: its numerators are 10^12 times larger, and its
    products with the other images cancel to a small remainder."""
    alg, images = lemma_images("A6^4")
    if broken == "scaled":
        e, k = images[-1], max(images[-1].coeffs)
        es = images[:-1] + [alg.element(
            {**e.coeffs, k: e.coeffs[k] + Q(1, 10 ** 12)})]
    else:
        es = [e for e in BROKEN_IMAGES[broken](images) if not e.is_zero()]
    pair = alg.first_idempotent_failure(es)
    assert pair == first_failing_pair(es)
    assert (pair is None) is (broken in (None, "zero"))


# b b = 7 b, of which b/7 is an idempotent; for -b the digit of (0, 0),
# 7 + 1 = 8, is the bound K |x|_1^2 + den d |x|_inf itself
SEVEN = [{0: ((0, 7),)}]
# b_0^2 = 2 b_0, b_1^2 = 2 b_1 and b_0 b_1 = 3 (b_0 + b_1), of which
# e = (b_0 + b_1)/8 is an idempotent; e (64 e) has the digit 64 per
# coefficient, beyond K |x|_1 + den d |x|_inf = 3 * 32 + 8
PAIR = [{0: ((0, 2),), 1: ((0, 3), (1, 3))}, {0: ((0, 3), (1, 3)), 1: ((1, 2),)}]


@pytest.mark.parametrize("rows,xs,pair", [
    (SEVEN, [[-1]], (0, 0)), (SEVEN, [[Q(1, 7)]], None),
    (SEVEN, [[-1], [Q(1, 7)]], (0, 0)), (SEVEN, [[Q(1, 7)], [-1]], (0, 1)),
    (PAIR, [[Q(1, 8)] * 2, [8] * 2], (0, 1)),
    (PAIR, [[Q(1, 8)] * 2], None)])
def test_packed_certificate_at_its_bound(rows, xs, pair):
    """Inputs whose first failing digit reaches the bound of the packed
    certificate: a digit one bit narrower, a bound without the diagonal
    term or with K = 1 or |x|_1 in place of |x|_1^2 carries it into the
    next pair."""
    alg = StructureAlgebra([f"b{i}" for i in range(len(rows))],
                           lambda: (1, rows), None)
    es = [alg.element(x) for x in xs]
    assert alg.first_idempotent_failure(es) == pair == first_failing_pair(es)


# -- Theorem 3.1: shared root-pair products against per-pair images ----------

def direct_theorem_3_1(p):
    """Every basis pair i <= j: phi applied to b_i b_j against the product
    of the rational images, their form against <b_i, b_j>.  Returns the
    first pair of each kind that differs, or None, and the rank of the
    dense matrix of images."""
    ra = p.domain
    n = ra.alg.dim
    images = [image_of_basis(p, i) for i in range(n)]
    product_pair = form_pair = None
    for i in range(n):
        for j in range(i, n):
            lhs = p.apply(basis_element(ra.alg, i)
                          * basis_element(ra.alg, j))
            if product_pair is None and lhs != images[i] * images[j]:
                product_pair = (i, j)
            if (form_pair is None and images[i].form(images[j])
                    != basis_form(ra.alg, i, j)):
                form_pair = (i, j)
    return product_pair, form_pair, phi_matrix(p).rank()


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "A5", "A6", "D4",
                                  "D5", "E6", "A2+A1", "A1^3"])
def test_theorem_3_1_matches_direct(spec):
    p = phi(spec)
    rep = verify_theorem_3_1(p)
    assert rep == direct_theorem_3_1(p)
    assert rep[:2] == (None, None)


def pair_rows(p) -> list:
    """BPlusStructure.pair_mismatches of phi's codomain against its
    domain, as one {s: (products, forms) or None} per root r."""
    B = p.codomain
    return [row for _, row in B.pair_mismatches(p.domain.alg, B.rank_one())]


def kept_pairs(p) -> list:
    """The roots s >= r per root r that pair_mismatches keeps."""
    return [set(row) for row in pair_rows(p)]


@pytest.mark.parametrize("spec", ["A3", "A5", "D4", "D5", "E6", "A1^24",
                                  "A2^12", "A3+D4"])
def test_theorem_3_1_keeps_the_non_orthogonal_pairs(spec):
    """The product check visits exactly the diagonal and the root pairs
    that are not orthogonal in the coordinate model, and returns the
    triple of the per-pair definition."""
    p, rel = phi(spec), reference(spec).rel
    N = p.domain.rs.N
    assert kept_pairs(p) == [{s for s in range(r, N) if rel[r][s] < 2}
                             for r in range(N)]
    assert verify_theorem_3_1(p) == direct_theorem_3_1(p)


def with_phi(monkeypatch, p):
    """verify's targets run on phi p instead of the one they build."""
    monkeypatch.setattr(verify, "PhiMap", lambda ra, bp: p)
    return p.domain.rs.spec_string()


def as_dicts(table):
    """A table (den, rows) read back as dict rows of rationals, row i
    {j: {k: value}} for a product, {j: value} for a form, the rules of
    encode_rows."""
    den, rows = table

    def row(i):
        return {j: ({k: Q(v, den) for k, v in e} if isinstance(e, tuple)
                    else Q(e, den)) for j, e in rows[i].items()}
    return row


def with_changed_entry(source, i, j, change):
    """Dict rows with entry j of row i, and i of row j, changed; change
    gets None for an entry the rows leave out."""
    def row(k):
        out = dict(source(k))
        if k in (i, j):
            other = j if k == i else i
            out[other] = change(out.get(other))
        return out
    return row


def plus_one(entry):
    """A form entry plus 1."""
    return (entry or 0) + 1


def plus_basis(k):
    """A product entry plus b_k."""
    return lambda terms: {**(terms or {}), k: (terms or {}).get(k, 0) + 1}


def changed_domain(spec, changes):
    """phi on spec with A's entries changed: (what, i, j) adds 1 to the
    form at (i, j), or b_i to the product b_i b_j; (what, i, j, k) adds b_k
    to the product."""
    rs = system(spec)
    alg = build_A(rs).alg
    product, form = as_dicts(alg.product_table), as_dicts(alg.form_table)
    for what, i, j, *k in changes:
        if what == "form":
            form = with_changed_entry(form, i, j, plus_one)
        else:
            product = with_changed_entry(product, i, j,
                                         plus_basis(k[0] if k else i))
    ra = RootAlgebra(rs, StructureAlgebra(
        alg.basis_labels, *encode_rows(product, form, alg.dim)), False)
    return PhiMap(ra, bplus(spec))


def orthogonal_pair(spec) -> tuple:
    """The least root pair (0, s) of orthogonal roots."""
    return 0, reference(spec).rel[0].index(2)


def broken_phi(spec, what):
    """phi on spec with one input changed, on freshly compiled algebras."""
    rs = system(spec)
    bp = build_bplus(rs)
    (s, g), (s2, g2) = rs.neighbours[0][:2]
    if what == "A form":  # <t(0), t(s)> for a root s next to root 0
        return changed_domain(spec, [("form", 0, s)])
    if what == "A product on s":  # t(s) + u(s) added to t(0) t(s): a_s^2
        return changed_domain(spec, [("product", 0, s, s),
                                     ("product", 0, s, rs.N + s)])
    if what == "alpha^2":
        # one coefficient of the last root's square, in the one list that
        # phi and the kernel read
        bp._sq = [dict(q) for q in bp._sq]
        bp._sq[-1][min(bp._sq[-1])] += 1
        return PhiMap(build_A(rs), bp)
    # "kernel Cartan": (alpha_0, alpha_1) + 1 in the Cartan matrix the
    # kernel reads; "kernel neighbours": x_0 x_s = x_0 for the first root s
    # orthogonal to root 0, in root 0's neighbour list only; "kernel
    # neighbour lists": in root 0's list only, its first neighbour s again
    # (x_0 x_s = 2 x_g), (0, 0) (x_0 x_0 gains x_0) and (s2, k) for its
    # second neighbour s2 and a root k other than 0, s2 and their third;
    # "kernel Cartan and pairing": (alpha_0, alpha_1) + 1 in S and, for the
    # first root r with c_r = (0, 1, ...), (alpha_0, r) + 1 in its
    # pairings, so that c_r^T S c_s = 0 while c_s^T S c_r and p_r . c_s are
    # not for the roots s orthogonal to r with c_s = (1, 0, ...); "kernel
    # pairing": (alpha_0, r) + 1 in the pairings of the last root r with
    # c_r = (1, ...) alone.  The rows, forms, pairings, squares and root
    # system are otherwise those of the true B+.
    S = [[int(dot(a, b)) for b in simple_roots(rs)] for a in simple_roots(rs)]
    pcol = [list(col) for col in bp._pcol]
    if what.startswith("kernel Cartan"):
        S[0][1] += 1
    if what in ("kernel Cartan and pairing", "kernel pairing"):
        coeffs = rs.simple_coeffs
        r = (max(r for r, c in enumerate(coeffs) if c[0])
             if what == "kernel pairing" else
             next(r for r, c in enumerate(coeffs) if c[:2] == (0, 1)))
        col = dict(pcol[r])
        col[0] = col.get(0, 0) + 1
        pcol[r] = sorted(col.items())
    alg = BPlusStructure(bp.basis_labels, lambda: bp.product_table, rs, S,
                         pcol, bp._sq)
    if what == "kernel neighbours":
        alg._nbrs = [list(nb) for nb in rs.neighbours]
        alg._nbrs[0].append((orthogonal_pair(spec)[1], 0))
    if what == "kernel neighbour lists":
        k = next(q for q in range(rs.N) if q not in (0, s2, g2))
        alg._nbrs = [list(nb) for nb in rs.neighbours]
        alg._nbrs[0] += [(s, g), (0, 0), (s2, k)]
    return PhiMap(build_A(rs), alg)


@pytest.mark.parametrize("what", ["kernel Cartan", "alpha^2", "A form"])
@pytest.mark.parametrize("spec", ["A3", "D4"])
def test_broken_inputs_fail_like_direct(spec, what):
    """"kernel Cartan" changes only what B+'s kernel reads, so its products
    and forms alike.  A changed alpha^2 leaves the rank uncounted."""
    rep = verify_theorem_3_1(broken_phi(spec, what))
    assert rep != (None, None, bplus(spec).dim)
    assert_like_direct(rep, broken_phi(spec, what), what)
    if what == "kernel Cartan":
        assert None not in rep[:2]


def assert_like_direct(rep, p, what):
    """rep is direct_theorem_3_1's triple on p, but where alpha^2 is
    changed: there the pair verdicts are its, and the rank is None."""
    direct = direct_theorem_3_1(p)
    if what == "alpha^2":
        assert rep == (*direct[:2], None)
    else:
        assert rep == direct


@pytest.mark.parametrize("what", ["kernel Cartan",
                                  "kernel Cartan and pairing",
                                  "kernel neighbours", "alpha^2", "A form",
                                  "orthogonal product", "orthogonal form"])
@pytest.mark.parametrize("spec", ["A3", "D4", "A3+D4"])
def test_skipped_pairs_fail_like_direct(spec, what):
    """Each broken input, and an entry of A added at the basis pair
    (t_0, u_s) of orthogonal roots 0 and s, where the product check
    visits no root pair, gives the triple of the per-pair definition."""
    if what.startswith("orthogonal"):
        r, s = orthogonal_pair(spec)
        p = changed_domain(spec, [(what.split()[1], r, system(spec).N + s)])
        assert s not in kept_pairs(p)[r]
    else:
        p = broken_phi(spec, what)
    rep = verify_theorem_3_1(p)
    assert_like_direct(rep, p, what)
    assert rep[:2] != (None, None)
    if what.startswith("orthogonal"):
        pair = (r, system(spec).N + s)
        assert rep[:2] == ((pair, None) if what.endswith("product")
                           else (None, pair))


@pytest.mark.parametrize("what", [None, "kernel Cartan",
                                  "kernel Cartan and pairing",
                                  "kernel neighbours", "alpha^2"])
@pytest.mark.parametrize("spec", ["A3", "D4", "A3+D4"])
def test_left_out_pairs_have_zero_products(spec, what):
    """Every kernel product of the operands of a root pair that
    pair_mismatches leaves out is 0, also with the kernel's Cartan matrix,
    its pairings, a neighbour list or one root's alpha^2 changed; a changed
    alpha^2 keeps every pair of its root."""
    p = phi(spec) if what is None else broken_phi(spec, what)
    B, parts = p.codomain, p.parts
    kept = kept_pairs(p)
    for r, ops in enumerate(parts):
        for s in set(range(r, len(parts))) - kept[r]:
            assert not any(v for x in ops for y in parts[s]
                           for v in B.bilinear(x, y)[0].values()), (r, s)
    if what == "alpha^2":
        assert all(len(parts) - 1 in k for k in kept)


def takes_the_kernel(p, good, r, s) -> bool:
    """Whether root pair (r, s) has no closed form: a root that is not
    good, or an entry of A at one of its basis pairs on a root q other than
    r and s that is not good or whose c_q is not +-(c_r +- c_s)."""
    coeffs = p.domain.rs.simple_coeffs
    (_, rows), N = p.domain.alg.product_table, p.domain.rs.N
    cr, cs = coeffs[r], coeffs[s]
    thirds = {tuple(a + b for a, b in zip(cr, cs)),
              tuple(a - b for a, b in zip(cr, cs)),
              tuple(b - a for a, b in zip(cr, cs))}
    return not (good[r] and good[s]) or any(
        k % N not in (r, s) and not (good[k % N] and coeffs[k % N] in thirds)
        for i, j, _ in bplus_module._basis_pairs(N, r, s)
        for k, _ in rows[i].get(j, ()))


def fourth_root(spec):
    """phi on spec with b_k added to A's product t_0 t_s, s the first
    neighbour of root 0 and k a root other than 0, s and their third."""
    rs = system(spec)
    s, g = rs.neighbours[0][0]
    k = next(q for q in range(rs.N) if q not in (0, s, g))
    return changed_domain(spec, [("product", 0, s, k)])


@pytest.mark.parametrize("what", [None, "kernel Cartan",
                                  "kernel Cartan and pairing",
                                  "kernel pairing", "kernel neighbours",
                                  "kernel neighbour lists", "alpha^2",
                                  "A form", "A product on s", "fourth root"])
@pytest.mark.parametrize("spec", ["A3", "D4", "D5", "E6", "A2^12",
                                  "A3+D4"])
def test_closed_form_matches_the_kernel_per_pair(spec, what):
    """Every kept root pair's closed-form compare gives the product and
    form lists of the kernel's products and forms (_pair_mismatches), on
    the true phi and on each broken input, and it takes the kernel exactly
    where the pair has no closed form."""
    p = (phi(spec) if what is None else fourth_root(spec)
         if what == "fourth root" else broken_phi(spec, what))
    good, fallbacks = p.codomain.rank_one(), 0
    for r, row in enumerate(pair_rows(p)):
        for s, bad in row.items():
            assert (bad is None) == takes_the_kernel(p, good, r, s), (r, s)
            if bad is None:
                fallbacks += 1
            else:
                assert bad == bplus_module._pair_mismatches(p, r, s), (r, s)
    assert (fallbacks > 0) == (what in ("alpha^2", "fourth root"))


@pytest.mark.parametrize("what", ["kernel Cartan",
                                  "kernel Cartan and pairing",
                                  "kernel neighbours"])
@pytest.mark.parametrize("spec", ["A3", "D4", "E6", "A3+D4"])
def test_broken_kernel_form_rows_are_its_forms(spec, what):
    """B+'s form rows are bilinear's forms of the basis elements, also with
    the kernel's Cartan matrix, its pairings or a neighbour list changed."""
    B = broken_phi(spec, what).codomain
    for i in range(B.dim):
        assert [basis_form(B, i, j) for j in range(B.dim)] == [
            Q(*B.bilinear({i: 1}, {j: 1}, True)) for j in range(B.dim)], i


@pytest.mark.parametrize("spec", ["A3", "D4", "E6", "A2^12", "A3+D4"])
def test_closed_form_decides_every_kept_pair(spec, monkeypatch):
    """On a true phi no root pair takes the kernel's products and forms,
    and no table of B+ is built."""
    def fallback(phi, r, s):
        raise AssertionError(f"root pair ({r}, {s}) took the kernel")
    p = PhiMap(algebra_A(spec), build_bplus(system(spec)))
    monkeypatch.setattr(bplus_module, "_pair_mismatches", fallback)
    assert verify_theorem_3_1(p)[:2] == (None, None)
    assert not {"product_table", "form_table"} & vars(p.codomain).keys()


def test_entry_on_a_fourth_root_takes_the_kernel(monkeypatch):
    """An entry of A on a root other than r, s and the root of c_r + c_s
    or c_r - c_s has no closed-form coordinates: that root pair, and only
    it, takes the kernel's products, and fails like the per-pair
    definition."""
    p, s = fourth_root("A3"), system("A3").neighbours[0][0][0]
    taken, kernel = [], bplus_module._pair_mismatches

    def fallback(phi, r, s):
        taken.append((r, s))
        return kernel(phi, r, s)
    monkeypatch.setattr(bplus_module, "_pair_mismatches", fallback)
    rep = verify_theorem_3_1(p)
    assert taken == [(0, s)]
    assert rep == direct_theorem_3_1(p)
    assert rep[:2] == ((0, s), None)


def test_theorem_3_1_on_A24():
    assert verify_theorem_3_1(phi("A24")) == (None, None, 600)


def test_broken_kernel_fails_theorem_and_span():
    p = broken_phi("A3", "kernel Cartan")
    assert verify_theorem_3_1(p)[0] is not None
    images = [p.apply(e)
              for e in coset_chain_decompose(p.domain).idempotents]
    assert p.codomain.is_associative_span(images) is False
    # the same images on the true B+ span an associative subalgebra
    alg, true_images = chain_images("A3")
    assert [e.coeffs for e in images] == [e.coeffs for e in true_images]
    assert alg.is_associative_span(true_images) is True


@pytest.mark.parametrize("what", ["product", "form"])
def test_each_basis_pair_is_compared(what):
    """On A2 and A3 a change of A's entry at any pair i <= j fails at that
    pair; root pairs r <= s cover the pairs (t_s, u_r) and the pairs on one
    root too, and on A3 the pairs of orthogonal roots, whose products the
    check reads from A's rows only."""
    for spec in ("A2", "A3"):
        n = algebra_A(spec).alg.dim
        for i in range(n):
            for j in range(i, n):
                rep = verify_theorem_3_1(changed_domain(spec, [(what, i, j)]))
                assert rep[:2] == (((i, j), None) if what == "product"
                                   else (None, (i, j)))


# On A2 (N = 3) the pair (2, 3) = (t_2, u_0) belongs to the root pair
# (0, 2), which the check visits before (1, 1).
@pytest.mark.parametrize("changes,first", [
    ([("form", 2, 3), ("form", 1, 1)], "form mismatch at basis pair (1,1)"),
    ([("product", 2, 3), ("product", 1, 1)],
     "product mismatch at basis pair (1,1)"),
    ([("product", 2, 3), ("form", 1, 1)], "form mismatch at basis pair (1,1)"),
    ([("form", 1, 1), ("product", 1, 1)],
     "product mismatch at basis pair (1,1)")])
def test_first_failure_in_pair_order(changes, first, monkeypatch):
    """The homomorphism and the isometry clause each name the least pair
    of their own kind."""
    p = changed_domain("A2", changes)
    [rep] = verify.run_target("thm3.1", with_phi(monkeypatch, p))
    clauses = rep.clauses
    for (_, ok, detail), what in zip(clauses, ("product", "form")):
        pairs = sorted((i, j) for w, i, j in changes if w == what)
        assert ok == (not pairs)
        assert detail == (pairs and "%s mismatch at basis pair (%d,%d)"
                          % (what, *pairs[0]) or None)
    assert first in [detail for _, _, detail in clauses]
    assert verify_theorem_3_1(p) == direct_theorem_3_1(p)


def test_product_mismatch_leaves_isometry_clause_passing(monkeypatch):
    p = changed_domain("A2", [("product", 0, 4)])
    [rep] = verify.run_target("thm3.1", with_phi(monkeypatch, p))
    assert rep.clauses[:2] == [
        ("algebra homomorphism on all basis pairs", False,
         "product mismatch at basis pair (0,4)"),
        ("isometry on all basis pairs", True, None)]
    assert all(ok for _, ok, _ in rep.clauses[2:])
    assert rep.to_json()["clauses"][1]["counterexample"] is None


# -- Corollary 3.2: the sparse radical against the dense kernels -------------

def dense_kernel_and_radical(p):
    """(dim ker phi, dim radical, rank of both bases together) from the
    dense matrices."""
    kernel = phi_kernel_basis(p)
    radical = kernel_basis(gram_matrix(p.domain.alg))
    return len(kernel), len(radical), QMatrix(kernel + radical).rank()


def sparse_radical(alg) -> list:
    """The radical as the null space of the integer form rows, written out
    as dense lists."""
    solver = SparseSolver(alg.dim)
    for i in range(alg.dim):
        solver.add_equation(alg.form_table[1][i], 0)
    return [[v.get(c, 0) for c in range(alg.dim)]
            for v in null_space(solver)]


DEFINITE = ("B+'s form is positive definite: the Cartan matrix S is "
            "symmetric with positive leading minors")


def kernel_is_radical(kernel):
    return (f"kernel = radical, of dimension 2N - rank = {kernel}, by "
            "thm3.1's isometry")


@pytest.mark.parametrize("spec", ["D4", "D5", "E6", "E7", "A3+D4", "D4^6"])
def test_sparse_cor_3_2_matches_dense(spec, monkeypatch):
    p = phi(spec)
    kernel, radical, joint = dense_kernel_and_radical(p)
    assert kernel == radical == joint
    [rep] = verify.run_target("cor3.2", with_phi(monkeypatch, p))
    assert rep.clauses == [(DEFINITE, True, None),
                           (kernel_is_radical(kernel), True, None)]
    sparse = sparse_radical(p.domain.alg)
    assert len(sparse) == radical
    assert QMatrix(sparse + phi_kernel_basis(p)).rank() == joint


@pytest.mark.parametrize("S,bad", [
    ([[2, 0], [-1, 2]], "S[0][1] = 0 != S[1][0] = -1"),
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "leading minor 3 of S is 0"),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], None),
    ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], None),
    ([[-2]], "leading minor 1 of S is < 0"),
    ([[2, -2], [-2, 1]], "leading minor 2 of S is < 0"),
    ([[2, 0, -1], [0, 0, 0], [-1, 0, 2]], "leading minor 2 of S is 0")])
def test_positive_definite_check(S, bad):
    """A3 and D4 pass; a non-symmetric S names its first entry, the
    affine A2 matrix its singular third minor."""
    assert verify._not_positive_definite(S) == bad


@pytest.mark.parametrize("changes,pair", [
    ([("form", 0, 1)], (0, 1)),
    ([("form", 0, 1), ("form", 12, 13)], (0, 1)),
    ([("form", 0, 13)], (0, 13)),
    ([("form", 0, 12)] * 4, (0, 12))])
def test_block_check_fails_on_a_cross_term(changes, pair, monkeypatch):
    """On D4 (N = 12) <t_0, t_1> + 1 gives a P-M cross term; adding
    <u_0, u_1> + 1 too leaves the cross terms 0 but puts <M_0, M_1> off the
    diagonal; <t_0, u_1> + 1 gives the cross term of the other sign;
    <t_0, u_0> + 4 makes <M_0, M_0> = 0.  Each breaks thm3.1's isometry
    at the changed entry, which cor3.2's kernel = radical clause names."""
    p = changed_domain("D4", changes)
    [rep] = verify.run_target("cor3.2", with_phi(monkeypatch, p))
    assert rep.clauses == [
        (DEFINITE, True, None),
        (kernel_is_radical(2), False,
         "thm3.1: form mismatch at basis pair (%d,%d)" % pair)]


@pytest.mark.parametrize("what,failing", [("A form", [1]), ("alpha^2", [1]),
                                          ("kernel Cartan", [0, 1])])
def test_broken_inputs_fail_sparse_and_dense_cor_3_2(what, failing,
                                                     monkeypatch):
    """One changed form entry of A changes the radical's dimension, one
    changed alpha^2 moves the kernel off the radical: each breaks thm3.1's
    isometry, which the kernel = radical clause cites.  "kernel Cartan"
    changes only the S that B+'s kernel reads: the dense kernel is still
    the radical, but S is not symmetric, so B+'s form is no longer known
    to be positive definite, and the isometry fails too."""
    p = broken_phi("D4", what)
    kernel, radical, joint = dense_kernel_and_radical(p)
    assert (kernel == radical == joint) == (what == "kernel Cartan")
    [rep] = verify.run_target("cor3.2", with_phi(monkeypatch, p))
    assert [k for k, (_, ok, _) in enumerate(rep.clauses) if not ok] == failing
    if what == "kernel Cartan":
        assert rep.clauses[0][2] == "S[0][1] = 0 != S[1][0] = -1"


@pytest.mark.parametrize("spec,root,top", [("A3", 5, 1), ("D4", 11, 2)])
def test_broken_square_leaves_the_rank_uncounted(spec, root, top,
                                                 monkeypatch):
    """alpha^2 of the last root changed, a path root on A3 and the highest
    root on D4, which is none (its top coefficient is 2): phi's rank is
    None, and thm3.1's surjective and kernel clauses and cor3.2's failing
    clauses name the root instead of a rank."""
    p = broken_phi(spec, "alpha^2")
    assert max(p.domain.rs.simple_coeffs[root]) == top
    why = f"alpha^2 of root {root} is not sym(c, c)"
    assert (p.rank, p.uncounted) == (None, why)
    name = with_phi(monkeypatch, p)
    [thm] = verify.run_target("thm3.1", name)
    assert [(ok, detail) for _, ok, detail in thm.clauses[2:]] == [
        (False, why), (False, why)]
    [cor] = verify.run_target("cor3.2", name)
    failing = [detail for _, ok, detail in cor.clauses if not ok]
    assert failing and all(detail == why for detail in failing)
    assert not any("None" in text for text, _, _ in cor.clauses)


@pytest.mark.parametrize("spec,root,coeffs,pair", [
    ("A3", 5, (1, 2, 1), (0, 2)), ("D4", 8, (1, 2, 0, 1), (0, 3))])
def test_missing_path_root_leaves_the_rank_uncounted(spec, root, coeffs,
                                                     pair):
    """The path root from simple root a to b read with coefficient 2 on
    its middle simple root, by the root data and by B+'s squares alike:
    every square is sym(c, c), but no root is a path from a to b.  On D4
    the root alpha_0 + alpha_1 + alpha_2 + alpha_3 has coefficients 0 and
    1 and contains both, but alpha_1 has three neighbours in it."""
    rs = build(spec)
    rs.simple_coeffs[root] = coeffs
    p = PhiMap(build_A(rs), build_bplus(rs))
    assert all(p.codomain.rank_one())
    assert (p.rank, p.uncounted) == (
        None, "no path root from simple root %d to %d" % pair)


# -- B+ element products: the S^2(H) kernel against the product table -------

def rows_product(x, y):
    """x * y of two B+ elements, walked over the rows of the product
    table."""
    (xs, dx), (ys, dy) = x._integer_coeffs(), y._integer_coeffs()
    out, den = StructureAlgebra.bilinear(x.algebra, xs, ys)
    return {k: Q(v, den * dx * dy) for k, v in out.items() if v}


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "A5", "D4", "D5",
                                  "E6", "A2+A1", "A1^3"])
def test_kernel_matches_rows_on_basis_pairs(spec):
    """Products against the product table, forms against the reference
    rule <ab, cd> = (a,c)(b,d) + (a,d)(b,c), <x_r, x_s> = 2 [r = s]."""
    alg = bplus(spec)
    form = bplus_rules(system(spec))[1]
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            x, y = basis_element(alg, i), basis_element(alg, j)
            assert (x * y).coeffs == alg.basis_product(i, j), (i, j)
            assert x.form(y) == form(i, j), (i, j)


@pytest.mark.parametrize("spec", ["A6", "D5", "E6"])
def test_kernel_matches_rows_on_dense_elements(spec):
    alg = bplus(spec)
    form = bplus_rules(system(spec))[1]
    rng = random.Random(spec)

    def dense():
        return alg.element({i: v for i in range(alg.dim)
                            if (v := rng.randint(-9, 9))})
    for _ in range(10):
        x, y = dense(), dense()
        assert (x * y).coeffs == rows_product(x, y)
        assert (x * x).coeffs == rows_product(x, x)
        assert x.form(y) == expand_form(x, y, form)


@pytest.mark.parametrize("name", ["A3^8", "A6^4"])
def test_kernel_matches_rows_on_chain_images(name):
    rs = catalog_entry(name).root_system()
    p = PhiMap(build_A(rs), build_bplus(rs))
    images = [p.apply(e)
              for e in coset_chain_decompose(p.domain).idempotents]
    for i, x in enumerate(images):
        for y in images[i:]:
            assert (x * y).coeffs == rows_product(x, y)
