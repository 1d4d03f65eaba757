import pytest

from griess import verify as verify_module
from griess.bplus import PhiMap, verify_theorem_3_1
from griess.exactlin import QMatrix, SparseSolver
from griess.ratio import Q
from griess.verify import run_target

from conftest import (algebra_A, algebra_T, basis_element, bplus, gram_matrix,
                      kernel_basis, mul_vector, phi, phi_kernel_basis,
                      phi_matrix, radical_dimension, reference, scaled,
                      system)


def x(bp, r):
    return basis_element(bp, bp.ns + r)


def root_square(bp, r):
    """alpha_r^2 over the S^2 basis."""
    return bp.element(bp._sq[r])


class TestConstruction:
    @pytest.mark.parametrize("spec", ["A1", "A2", "A3", "D4", "A1+A2"])
    def test_dimension(self, spec):
        bp = bplus(spec)
        rs = bp.rs
        assert bp.dim == rs.l * (rs.l + 1) // 2 + rs.N

    @pytest.mark.parametrize("spec", ["A1", "A2", "D4"])
    def test_form_nondegenerate(self, spec):
        assert radical_dimension(bplus(spec)) == 0

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
        assert (p.rank == phi_matrix(p).rank() == p.domain.alg.dim
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
        radical = kernel_basis(gram_matrix(algebra_A("D4").alg))
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


# The thm3.1 and cor3.2 clauses of `verify all` on D4 and A2, each as
# (description, ok, detail); a passing clause keeps the detail it would
# have shown.
SHARED_REPORTS = {
    "D4": {
        "thm3.1 [D4]": [
            ("algebra homomorphism on all basis pairs", True, None),
            ("isometry on all basis pairs", True, None),
            ("surjective (exact rank equals target dimension)", True,
             "rank 22 < dim 22"),
            ("kernel dimension = 2N - dim = 2", True, "2")],
        "cor3.2 [D4]": [
            ("B+'s form is positive definite: the Cartan matrix S is "
             "symmetric with positive leading minors", True, None),
            ("kernel = radical, of dimension 2N - rank = 2, by thm3.1's "
             "isometry", True, None)]},
    "A2": {
        "thm3.1 [A2]": [
            ("algebra homomorphism on all basis pairs", True, None),
            ("isometry on all basis pairs", True, None),
            ("surjective (exact rank equals target dimension)", True,
             "rank 6 < dim 6"),
            ("kernel dimension = 2N - dim = 0", True, "0")],
        "cor3.2 [A2]": [
            ("bijective: rank 6 = 2N = dim target", True,
             "rank 6, 2N 6, dim 6")]}}


@pytest.mark.parametrize("spec", ["D4", "A2"])
def test_thm_3_1_runs_once_and_solves_nothing(spec, monkeypatch):
    """`verify all` on one spec runs verify_theorem_3_1 once, and no target
    of it builds a SparseSolver: thm3.1 and cor3.2 read the System's one
    pass and phi's counted rank, and prop2.2 and lemma2.3 certify delta and
    epsilon on every basis vector instead of solving for the identity."""
    built, passes, init = [], [], SparseSolver.__init__

    def counted_init(self, n):
        built.append(n)
        init(self, n)

    def counted(p):
        passes.append(p)
        return verify_theorem_3_1(p)
    monkeypatch.setattr(SparseSolver, "__init__", counted_init)
    monkeypatch.setattr(verify_module, "verify_theorem_3_1", counted)
    reports = {r.target: r.clauses for r in run_target("all", spec)
               if r.target.startswith(("thm3.1", "cor3.2"))}
    assert built == []
    assert len(passes) == 1
    assert reports == SHARED_REPORTS[spec]
