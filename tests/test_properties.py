"""Property-based checks: randomized algebra laws, exact serialization
round-trips, and rank invariance of the exact linear algebra."""

import random

from hypothesis import given, settings, strategies as st

from griess.exactlin import QMatrix
from griess.niemeier import F2QuadSpace
from griess.ratio import Q, q_parse, q_str
from griess.rootalgebra import coset_chain_decompose

from conftest import (algebra_A, bplus, kernel_basis, mul_vector,
                      polar)
from test_exactlin import rank_bareiss

rationals = st.builds(Q, st.integers(-40, 40),
                      st.integers(1, 12))


def random_element(alg, rng, support=4):
    coeffs = {rng.randrange(alg.dim): Q(rng.randint(-9, 9), rng.randint(1, 4))
              for _ in range(support)}
    return alg.element(coeffs)


class TestCommutativity:
    def test_500_random_pairs_per_algebra(self):
        rng = random.Random(20240824)
        for alg in (algebra_A("A3").alg, bplus("A2"), bplus("D4")):
            for _ in range(500):
                x = random_element(alg, rng)
                y = random_element(alg, rng)
                assert x * y == y * x


class TestFormInvariance:
    def test_bplus_associative_form(self):
        # <ab, c> = <a, bc> on the weight-2 algebra, randomized triples
        rng = random.Random(7)
        for spec in ("A2", "A3", "D4"):
            alg = bplus(spec)
            for _ in range(100):
                a, b, c = (random_element(alg, rng) for _ in range(3))
                assert (a * b).form(c) == a.form(b * c)


class TestChargeAdditivity:
    def test_across_orthogonal_idempotents(self):
        for spec in ("A2", "A4", "A1^2"):
            dec = coset_chain_decompose(algebra_A(spec))
            total = dec.idempotents[0]
            for e in dec.idempotents[1:]:
                total = total + e
            assert total.central_charge() == sum(dec.charges)


@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_row_permutation_and_scaling(rows):
    m = QMatrix(rows)
    shuffled = list(rows)
    random.Random(0).shuffle(shuffled)
    scaled = [[Q(3) * x for x in r] for r in shuffled]
    assert QMatrix(scaled).rank() == m.rank()
    assert rank_bareiss(m) == m.rank()


@given(rationals)
def test_rational_roundtrip(x):
    assert q_parse(q_str(x)) == x


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_rational_string_roundtrip_large(p, q):
    x = Q(p, q)
    s = q_str(x)
    assert q_parse(s) == x
    assert "/" not in s or int(s.split("/")[1]) > 1


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_f2_polar_form_bilinear(u, v, w):
    sp = F2QuadSpace(6)
    assert polar(sp, u, v) == polar(sp, v, u)
    assert polar(sp, u ^ v, w) == polar(sp, u, w) ^ polar(sp, v, w)


@given(st.lists(st.lists(rationals, min_size=2, max_size=2),
                min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(rows):
    m = QMatrix(rows)
    for v in kernel_basis(m):
        assert all(x == 0 for x in mul_vector(m, v))
    assert m.rank() + len(kernel_basis(m)) == m.cols
