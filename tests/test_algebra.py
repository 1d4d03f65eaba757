import gc

import pytest

from griess.algebra import StructureAlgebra
from griess.ratio import Q

from conftest import (basis_element, basis_form, encode_rows, is_idempotent,
                      radical_dimension, scaled)


def two_dim_split():
    """Q x Q with componentwise product: identity (1,1), orthogonal form."""
    return StructureAlgebra(["a", "b"], *encode_rows(
        {(0, 0): {0: Q(1)}, (0, 1): {}, (1, 1): {1: Q(1)}},
        {(0, 0): Q(1), (0, 1): Q(0), (1, 1): Q(1)}, 2))


def no_identity_algebra():
    """One-dimensional zero multiplication: no identity exists."""
    return StructureAlgebra(["n"], *encode_rows({(0, 0): {}},
                                                {(0, 0): Q(1)}, 1))


def nonassociative_example():
    """a*a=b, a*b=a, b*b=0: (aa)b = bb = 0 but a(ab) = aa = b."""
    return StructureAlgebra(["a", "b"], *encode_rows(
        {(0, 0): {1: Q(1)}, (0, 1): {0: Q(1)}, (1, 1): {}},
        {(0, 0): Q(1), (0, 1): Q(0), (1, 1): Q(1)}, 2))


def set_gram(data: dict, entries: dict):
    for (i, j), s in entries.items():
        data["gram"][i][j] = s


class TestElements:
    def test_arithmetic(self):
        alg = two_dim_split()
        x = alg.element({0: Q(2), 1: Q(3)})
        y = alg.element({0: Q(-2)})
        assert (x + y).coeffs == {1: Q(3)}
        assert (x - x).is_zero()
        assert scaled(x, Q(1, 2)).coeffs == {0: Q(1), 1: Q(3, 2)}

    def test_product_bilinear(self):
        alg = two_dim_split()
        x = alg.element({0: Q(2), 1: Q(5)})
        assert (x * x).coeffs == {0: Q(4), 1: Q(25)}

    def test_form_and_charge(self):
        alg = two_dim_split()
        x = alg.element({0: Q(1), 1: Q(1)})
        assert x.form(x) == 2
        assert x.central_charge() == 16

    def test_idempotents(self):
        alg = two_dim_split()
        e = basis_element(alg, 0)
        f = basis_element(alg, 1)
        assert is_idempotent(e) and is_idempotent(f)
        assert (e * f).is_zero() and e.form(f) == 0

    def test_mixing_algebras_rejected(self):
        with pytest.raises(ValueError):
            basis_element(two_dim_split(), 0) * basis_element(
                no_identity_algebra(), 0)


class TestIdentity:
    def test_found(self):
        alg = two_dim_split()
        ident = alg.find_identity()
        assert ident is not None
        assert ident.coeffs == {0: Q(1), 1: Q(1)}

    def test_absent(self):
        assert no_identity_algebra().find_identity() is None


class TestAssociativeSpan:
    def test_split_basis_passes(self):
        alg = two_dim_split()
        assert alg.is_associative_span([basis_element(alg, 0),
                                        basis_element(alg, 1)])

    def test_nonassociative_fails(self):
        alg = nonassociative_example()
        assert not alg.is_associative_span([basis_element(alg, 0),
                                            basis_element(alg, 1)])

    def test_unclosed_span_fails(self):
        alg = nonassociative_example()
        # a alone: a*a = b is outside span{a}
        assert not alg.is_associative_span([basis_element(alg, 0)])

    def test_dependent_elements_rejected(self):
        alg = two_dim_split()
        x = alg.element({0: Q(1), 1: Q(1)})
        with pytest.raises(ValueError):
            alg.is_associative_span([x, scaled(x, 2)])


class TestSerialization:
    def test_roundtrip(self):
        alg = two_dim_split()
        data = alg.to_json()
        back = StructureAlgebra.from_json(data)
        assert back.dim == alg.dim
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert back.basis_product(i, j) == alg.basis_product(i, j)
                assert basis_form(back, i, j) == basis_form(alg, i, j)

    def test_rationals_as_strings(self):
        alg = StructureAlgebra(["a"], *encode_rows(
            {(0, 0): {0: Q(1, 3)}}, {(0, 0): Q(7, 2)}, 1))
        data = alg.to_json()
        assert data["products"] == [[0, 0, [[0, "1/3"]]]]
        assert data["gram"] == [["7/2"]]


    @pytest.mark.parametrize("change,message", [
        (lambda d: d["products"].append([1, 1, [[5, "1"]]]),
         r"products\[2\]: term on b_5, outside the basis 0..1"),
        (lambda d: d["products"].append([0, 2, [[0, "1"]]]),
         r"products\[2\]: basis pair \(0, 2\) is outside the basis 0..1"),
        (lambda d: d["products"].append([-1, 0, [[0, "1"]]]),
         r"products\[2\]: basis pair \(-1, 0\) is outside"),
        (lambda d: d["gram"][1].pop(),
         r"gram\[1\] has 1 entries, not 2"),
        (lambda d: d["gram"].pop(), r"gram has 1 rows, not 2"),
        (lambda d: d["products"].append([1, 0, [[1, "1"]]]),
         r"products\[2\]: basis pair \(0, 1\) is listed twice"),
        (lambda d: d["products"].append([1, 1, [[1, "1"], [1, "2"]]]),
         r"products\[2\]: b_1 has two terms"),
        (lambda d: set_gram(d, {(0, 1): "1", (1, 0): "5"}),
         r"gram\[1\]\[0\] is 5, gram\[0\]\[1\] is 1"),
        (lambda d: set_gram(d, {(1, 0): "1/2"}),
         r"gram\[1\]\[0\] is 1/2, gram\[0\]\[1\] is 0"),
        (lambda d: set_gram(d, {(0, 1): "-3"}),
         r"gram\[1\]\[0\] is 0, gram\[0\]\[1\] is -3"),
        (lambda d: d["products"].append([1, 1, [[0, "1"], [1, "1/0"]]]),
         r"products\[2\]: '1/0' has denominator 0"),
        (lambda d: set_gram(d, {(0, 1): "1/0", (1, 0): "1/0"}),
         r"gram\[0\]\[1\]: '1/0' has denominator 0"),
        (lambda d: d["products"].append([1, 1, [[0, 8]]]),
         r"products\[2\]: 8 is not a string"),
        (lambda d: d["products"].append([1, 1, [[0, None]]]),
         r"products\[2\]: None is not a string"),
        (lambda d: set_gram(d, {(1, 1): 4}),
         r"gram\[1\]\[1\]: 4 is not a string"),
        (lambda d: set_gram(d, {(0, 1): None, (1, 0): None}),
         r"gram\[0\]\[1\]: None is not a string"),
        (lambda d: d["products"].append(["1", 1, [[0, "1"]]]),
         r"products\[2\]: basis pair \('1', 1\) is outside the basis"),
        (lambda d: d["products"].append([1, 1]),
         r"products\[2\]: not enough values to unpack"),
        (lambda d: d["products"].append([1, 1, [[0.5, "1"]]]),
         r"products\[2\]: term index 0.5 is not an integer"),
        (lambda d: d["products"].append([1, 1, [[True, "2"]]]),
         r"products\[2\]: term index True is not an integer"),
        # products[0] has the term [1, "1"], which True equals as a key
        (lambda d: d["products"].append([1, 1, [[True, "1"]]]),
         r"products\[2\]: term index True is not an integer"),
        (lambda d: d["products"].append([1, 1, [[0, "1"], [1.0, "1"]]]),
         r"products\[2\]: term index 1.0 is not an integer"),
        (lambda d: set_gram(d, {(0, 1): [1], (1, 0): [1]}),
         r"gram\[0\]\[1\]: \[1\] is not a string"),
        (lambda d: set_gram(d, {(1, 1): {}}),
         r"gram\[1\]\[1\]: \{\} is not a string")])
    def test_malformed_tables_name_the_entry(self, change, message):
        data = nonassociative_example().to_json()
        change(data)
        with pytest.raises(ValueError, match=message):
            StructureAlgebra.from_json(data)

    def test_gram_mirrors_may_differ_in_spelling(self):
        data = nonassociative_example().to_json()
        set_gram(data, {(0, 1): "2/4", (1, 0): "1/2", (1, 1): "0/3"})
        alg = StructureAlgebra.from_json(data)
        assert basis_form(alg, 0, 1) == basis_form(alg, 1, 0) == Q(1, 2)
        assert basis_form(alg, 1, 1) == 0

    def test_term_outside_a_one_vector_basis(self):
        data = {"basis": ["a"], "products": [[0, 0, [[5, "1"]]]],
                "gram": [["1"]]}
        with pytest.raises(ValueError, match=r"products\[0\]: term on b_5"):
            StructureAlgebra.from_json(data)


class TestCollectorPause:
    """to_json and from_json leave the cyclic collector as they found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            data = two_dim_split().to_json()
            assert gc.isenabled() is enabled
            StructureAlgebra.from_json(data)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_state_restored_on_error(self):
        assert gc.isenabled()
        data = two_dim_split().to_json()
        data["products"].append([0, 0, [[5, "1"]]])
        with pytest.raises(ValueError):
            StructureAlgebra.from_json(data)
        assert gc.isenabled()


class TestRadical:
    def test_nondegenerate(self):
        assert radical_dimension(two_dim_split()) == 0

    def test_degenerate(self):
        alg = StructureAlgebra(["a", "b"], *encode_rows(
            {}, {(0, 0): Q(1), (0, 1): Q(0), (1, 1): Q(0)}, 2))
        assert radical_dimension(alg) == 1
