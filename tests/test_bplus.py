import pytest

from griess.bplus import PhiMap, verify_theorem_3_1
from griess.exactlin import QMatrix
from griess.ratio import Q

from conftest import (algebra_A, algebra_T, basis_element, bplus, gram_matrix,
                      mul_vector, phi, phi_kernel_basis, phi_matrix,
                      radical_dimension, reference, scaled, system)


def x(bp, r):
    return basis_element(bp.alg, bp.num_sym + r)


def root_square(bp, r):
    """alpha_r^2 over the S^2 basis."""
    return bp.alg.element(bp._sq[r])


class TestConstruction:
    @pytest.mark.parametrize("spec", ["A1", "A2", "A3", "D4", "A1+A2"])
    def test_dimension(self, spec):
        bp = bplus(spec)
        rs = bp.rs
        assert bp.dim == rs.l * (rs.l + 1) // 2 + rs.N

    @pytest.mark.parametrize("spec", ["A1", "A2", "D4"])
    def test_form_nondegenerate(self, spec):
        assert radical_dimension(bplus(spec).alg) == 0

    def test_x_products(self):
        bp = bplus("A2")
        rs = reference("A2")
        # equal: x_r x_r = 2 r^2; non-orthogonal: closes on x_gamma
        assert x(bp, 0) * x(bp, 0) == scaled(root_square(bp, 0), 2)
        g = rs.gamma[(0, 1)]
        assert x(bp, 0) * x(bp, 1) == x(bp, g)
        assert x(bp, 0).form(x(bp, 0)) == 2
        assert x(bp, 0).form(x(bp, 1)) == 0

    def test_orthogonal_x_vanish(self):
        bp = bplus("A1^2")
        assert (x(bp, 0) * x(bp, 1)).is_zero()

    def test_square_acts_on_x(self):
        # alpha^2 x_alpha = 2(alpha,alpha)^2/2 ... explicitly: (ab)x_r =
        # 2(a,r)(b,r)x_r; for a=b=alpha=r this is 2*2*2 = 8
        bp = bplus("A1")
        assert root_square(bp, 0) * x(bp, 0) == scaled(x(bp, 0), 8)


class TestPhi:
    def test_images(self):
        p = phi("A1")
        bp = p.codomain
        t_img = p.apply(basis_element(p.domain.alg, 0))
        u_img = p.apply(basis_element(p.domain.alg, p.domain.rs.N))
        half_sq = scaled(root_square(bp, 0), Q(1, 2))
        assert t_img == half_sq - x(bp, 0)
        assert u_img == half_sq + x(bp, 0)

    def test_images_are_idempotent_multiples(self):
        # t(alpha)^2 = 8 t(alpha) must be preserved
        p = phi("A2")
        for i in range(p.domain.alg.dim):
            img = p.apply(basis_element(p.domain.alg, i))
            assert img * img == scaled(img, 8)

    def test_phi_requires_full_algebra(self):
        with pytest.raises(ValueError):
            PhiMap(algebra_T("A1"), bplus("A1"))

    @pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4"])
    def test_bijective_type_a(self, spec):
        p = phi(spec)
        assert (p.rank() == phi_matrix(p).rank() == p.domain.alg.dim
                == p.codomain.dim)

    @pytest.mark.parametrize("spec,kdim", [("D4", 2), ("D5", 5), ("E6", 15)])
    def test_kernel_dimension(self, spec, kdim):
        p = phi(spec)
        kernel = phi_kernel_basis(p)
        assert len(kernel) == kdim
        mat = phi_matrix(p)
        for v in kernel:
            assert all(x == 0 for x in mul_vector(mat, v))

    def test_kernel_equals_radical_d4(self):
        p = phi("D4")
        kernel = phi_kernel_basis(p)
        radical = gram_matrix(algebra_A("D4").alg).kernel_basis()
        joint = QMatrix(kernel + radical)
        assert joint.rank() == len(kernel) == len(radical)


class TestTheorem:
    @pytest.mark.parametrize("spec", ["A1", "A2", "A3", "D4"])
    def test_verify(self, spec):
        product_pair, form_pair, rank = verify_theorem_3_1(phi(spec))
        assert product_pair is None and form_pair is None
        assert rank == bplus(spec).dim

    def test_report_fields(self):
        # no mismatched pair, and rank 2N: the kernel is 0
        assert verify_theorem_3_1(phi("A2")) == (None, None, 2 * system("A2").N)
