import pytest

from griess.ratio import Q
from griess.rootalgebra import (coset_chain_decompose, delta, epsilon,
                                generalized_chain_decompose)

from conftest import (algebra_A, algebra_T, basis_element, is_idempotent,
                      reference, scaled)


def t(ra, i):
    return basis_element(ra.alg, i)


def u(ra, i):
    return basis_element(ra.alg, ra.rs.N + i)


class TestStructureConstants:
    def test_a1_table(self):
        ra = algebra_A("A1")
        t0, u0 = t(ra, 0), u(ra, 0)
        assert (t0 * t0) == scaled(t0, 8)
        assert (u0 * u0) == scaled(u0, 8)
        assert (t0 * u0).is_zero()
        assert t0.form(t0) == 4 and u0.form(u0) == 4 and t0.form(u0) == 0

    def test_a2_triple_closure(self):
        ra = algebra_A("A2")
        rs = reference("A2")
        i, j = 0, 1
        assert rs.rel[i][j] == 1
        g = rs.gamma[(i, j)]
        prod = t(ra, i) * t(ra, j)
        assert prod == t(ra, i) + t(ra, j) - t(ra, g)
        # u*u closes on t(gamma); mixed closes on u(gamma)
        assert u(ra, i) * u(ra, j) == u(ra, i) + u(ra, j) - t(ra, g)
        assert u(ra, i) * t(ra, j) == u(ra, i) + t(ra, j) - u(ra, g)

    def test_orthogonal_roots_vanish(self):
        ra = algebra_A("A1^2")
        assert (t(ra, 0) * t(ra, 1)).is_zero()
        assert (t(ra, 0) * u(ra, 1)).is_zero()
        assert t(ra, 0).form(t(ra, 1)) == 0

    def test_form_on_neighbours(self):
        ra = algebra_A("A2")
        assert t(ra, 0).form(t(ra, 1)) == Q(1, 2)
        assert t(ra, 0).form(u(ra, 1)) == Q(1, 2)

    def test_t_span_has_no_u(self):
        rt = algebra_T("A2")
        assert rt.alg.dim == 3
        assert rt.alg.basis_labels == ["t(0)", "t(1)", "t(2)"]


class TestIdentities:
    @pytest.mark.parametrize("spec", ["A1", "A2", "A3", "D4", "A1+A2"])
    def test_delta_is_identity(self, spec):
        ra = algebra_A(spec)
        assert delta(ra) == ra.alg.find_identity()

    @pytest.mark.parametrize("spec", ["A1", "A2", "D4", "A1+A2"])
    def test_epsilon_is_t_identity(self, spec):
        rt = algebra_T(spec)
        assert epsilon(rt) == rt.alg.find_identity()

    def test_delta_coefficients(self):
        d = delta(algebra_A("A2"))
        assert set(d.coeffs.values()) == {Q(1, 12)}

    def test_epsilon_coefficients(self):
        # h = 3 for A_2: the t-span identity carries 1/(2h+4) = 1/10
        e = epsilon(algebra_T("A2"))
        assert set(e.coeffs.values()) == {Q(1, 10)}

    def test_mixed_component_coefficients(self):
        d = delta(algebra_A("A1+A2"))
        rs = algebra_A("A1+A2").rs
        assert d.coeffs[rs.component_root_slices[0][0]] == Q(1, 8)
        assert d.coeffs[rs.component_root_slices[1][0]] == Q(1, 12)

    def test_delta_refuses_t_span(self):
        with pytest.raises(ValueError):
            delta(algebra_T("A1"))


class TestCharges:
    @pytest.mark.parametrize("spec,l,h", [("A1", 1, 2), ("A2", 2, 3),
                                          ("A4", 4, 5), ("D4", 4, 6),
                                          ("E6", 6, 12)])
    def test_lemma_2_4(self, spec, l, h):
        assert delta(algebra_A(spec)).central_charge() == l
        assert epsilon(algebra_T(spec)).central_charge() == Q(l * h, h + 2)

    @pytest.mark.parametrize("spec,l", [("A1", 1), ("A3", 3), ("A5", 5)])
    def test_parafermion_charge(self, spec, l):
        ra = algebra_A(spec)
        c = (delta(ra) - epsilon(ra)).central_charge()
        assert c == Q(2 * l, l + 3)


class TestDecomposition:
    def test_a2_charges(self):
        dec = coset_chain_decompose(algebra_A("A2"))
        assert dec.charges == [Q(1, 2), Q(7, 10), Q(4, 5)]

    def test_a1_charges(self):
        dec = coset_chain_decompose(algebra_A("A1"))
        assert dec.charges == [Q(1, 2), Q(1, 2)]

    def test_idempotent_system(self):
        dec = coset_chain_decompose(algebra_A("A3"))
        assert all(is_idempotent(e) for e in dec.idempotents)
        assert dec.checks == {"sum_to_identity": True,
                              "pairwise_products": True,
                              "pairwise_form": True}

    def test_semisimple_concatenates(self):
        dec = coset_chain_decompose(algebra_A("A1^2"))
        assert dec.charges == [Q(1, 2)] * 4

    def test_d_and_e_default_chains(self):
        """D and E components run the A_(l-1) path, then the whole
        component, then the tail: l+1 idempotents."""
        dec = coset_chain_decompose(algebra_A("D4"))
        assert dec.charges == [Q(1, 2), Q(7, 10), Q(4, 5), Q(1), Q(1)]
        assert all(dec.checks.values())
        dec = coset_chain_decompose(algebra_A("E8"))
        assert len(dec.idempotents) == 9
        assert sum(dec.charges) == 8
        assert all(dec.checks.values())

    def test_charges_sum_to_rank(self):
        dec = coset_chain_decompose(algebra_A("A5"))
        assert sum(dec.charges) == 5


class TestGeneralizedChain:
    def test_reproduces_type_a(self):
        ra = algebra_A("A2")
        a = coset_chain_decompose(ra)
        b = generalized_chain_decompose(ra, [[0], [0, 1]])
        assert a.idempotents == b.idempotents

    def test_empty_chain_gives_identity(self):
        ra = algebra_A("A2")
        dec = generalized_chain_decompose(ra, [])
        assert dec.idempotents == [delta(ra)]
        assert dec.charges == [Q(2)]

    def test_d4_chain(self):
        ra = algebra_A("D4")
        dec = generalized_chain_decompose(ra, [[0], [0, 1], [0, 1, 2, 3]])
        assert sum(dec.charges) == 4
        assert all(is_idempotent(e) for e in dec.idempotents)

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            generalized_chain_decompose(algebra_A("A3"), [[0], [1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            generalized_chain_decompose(algebra_A("A2"), [[5]])
