import pytest

from griess import rootsys
from griess.rootsys import SimpleType, build, parse_spec

from conftest import dot, reference, simple_roots, system


class TestParseSpec:
    def test_single(self):
        assert parse_spec("A2") == [SimpleType("A", 2)]

    def test_power(self):
        assert parse_spec("A1^24") == [SimpleType("A", 1)] * 24

    def test_star_and_sum(self):
        out = parse_spec("A2*12+E6")
        assert out == [SimpleType("A", 2)] * 12 + [SimpleType("E", 6)]

    @pytest.mark.parametrize("bad", ["X9", "A0", "D3", "E9", "", "A2^", "A3+",
                                     "A2^0", "A3^0+A2", "A2\n", "A\u0662",
                                     "A2^\u0663"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)


class TestCounts:
    @pytest.mark.parametrize("spec,l,N,h", [
        ("A1", 1, 1, 2), ("A2", 2, 3, 3), ("A3", 3, 6, 4),
        ("D4", 4, 12, 6), ("D5", 5, 20, 8), ("E6", 6, 36, 12),
        ("E7", 7, 63, 18), ("E8", 8, 120, 30),
    ])
    def test_simple(self, spec, l, N, h):
        rs = system(spec)
        assert (rs.l, rs.N) == (l, N)
        assert rs.h_per_component == [h]
        assert 2 * rs.N == sum(c.rank * c.coxeter for c in rs.components)

    def test_semisimple_blocks(self):
        rs, ref = system("A1+A2"), reference("A1+A2")
        assert rs.l == 3 and rs.N == 4
        for i in rs.component_root_slices[0]:
            for j in rs.component_root_slices[1]:
                assert ref.rel[i][j] == 2


class TestGeometry:
    @pytest.mark.parametrize("spec", ["A3", "D4", "E6"])
    def test_norms_and_inner_products(self, spec):
        rs = system(spec)
        for i, r in enumerate(rs.positive_roots):
            assert dot(r, r) == 2
            for j in range(i + 1, rs.N):
                assert dot(r, rs.positive_roots[j]) in (-1, 0, 1)

    def test_delta_partition_covers(self):
        """rel sorts the positive roots into {alpha} (0), the roots
        non-orthogonal to alpha (1) and those orthogonal to it (2)."""
        rs = reference("D4")
        N = len(rs.positive_roots)
        for i, alpha in enumerate(rs.positive_roots):
            assert [j for j in range(N) if rs.rel[i][j] == 0] == [i]
            for j, beta in enumerate(rs.positive_roots):
                assert rs.rel[i][j] == (0 if i == j else
                                        1 if dot(alpha, beta) else 2)

    @pytest.mark.parametrize("spec", ["A2", "A4", "D4", "E6"])
    def test_delta1_size(self, spec):
        rs, ref = system(spec), reference(spec)
        h = rs.components[0].coxeter
        for i in range(rs.N):
            assert list(ref.rel[i]).count(1) == 2 * h - 4

    def test_triple_symmetric(self):
        rs = reference("A2")
        g = rs.gamma[(0, 1)]
        assert rs.gamma[(1, 0)] == g
        # any two of the three determine the remaining one
        assert rs.gamma[(0, g)] == 1
        assert rs.gamma[(1, g)] == 0

    def test_triple_rejects_orthogonal(self):
        """Only non-orthogonal pairs have a third root."""
        rs, ref = system("A1^2"), reference("A1^2")
        assert ref.rel[0][1] == 2 and (0, 1) not in ref.gamma
        assert rs.neighbours == [[], []]


class TestChain:
    """The nested chain A_1 c A_2 c ... c A_l, one build per step."""

    def test_subsystem_chain_lengths(self):
        chain = [build(f"A{i}") for i in range(1, 4)]
        assert [c.N for c in chain] == [1, 3, 6]

    def test_chain_roots_nested(self):
        from griess.ratio import ZERO
        chain = [build(f"A{i}") for i in range(1, 6)]
        for small, big in zip(chain, chain[1:]):
            padded = {r + (ZERO,) for r in small.positive_roots}
            assert padded <= set(big.positive_roots)


def test_spec_string_roundtrip():
    for spec in ("A2", "D4", "A1^24", "A2^12"):
        assert build(spec).spec_string() == spec


def test_e7_e6_are_e8_subsystems():
    e8 = {r for r in system("E8").positive_roots}
    for spec, n in (("E7", 63), ("E6", 36)):
        rs = system(spec)
        assert rs.N == n
        assert all(r in e8 for r in rs.positive_roots)


DIFFERENTIAL_SPECS = ([f"A{l}" for l in range(1, 7)]
                      + [f"D{l}" for l in range(4, 8)]
                      + ["E6", "E7", "E8", "A2+A1", "A1^24", "A5^4+D4",
                         "A11+D7+E6", "D10+E7^2"])


class TestAgainstReference:
    """The build on doubled integer coordinates, with neighbours found
    through shared coordinates, against rational coordinates compared by
    plain dot products over all pairs."""

    @pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
    def test_build_matches_reference(self, spec):
        rs, ref = build(spec), reference(spec)
        assert rs.positive_roots == ref.positive_roots
        assert simple_roots(rs) == ref.simple_roots
        assert rs.simple_coeffs == ref.simple_coeffs
        assert rs.neighbours == ref.neighbours
        assert rs.doubled_roots == [tuple(int(2 * c) for c in r)
                                    for r in ref.positive_roots]

    @pytest.mark.parametrize("spec", ["E8^2", "A5^4+D4"])
    def test_build_creates_no_rational(self, spec, monkeypatch):
        def no_rationals(*args):
            raise AssertionError("the build made a rational")
        monkeypatch.setattr(rootsys, "Q", no_rationals)
        rs = build(spec)
        with pytest.raises(AssertionError, match="made a rational"):
            rs.positive_roots
