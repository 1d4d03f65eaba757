import functools
import re

import pytest

from griess import niemeier, verify
from griess.cli import run
from griess.niemeier import (CO1_ORDER, F2QuadSpace, NiemeierEntry, Table2Row,
                             brute_force_lagrangians, catalog, catalog_entry,
                             lagrangian_extension_count, lemma_4_2_subalgebra,
                             table1_consistency, table2_consistency,
                             table2_rows)
from griess.ratio import Q
from griess.verify import run_target

from conftest import (closed_images, polar, reference_lagrangians,
                      run_report_script, system)


class TestCatalog:
    def test_twenty_four_entries(self):
        assert len(catalog()) == 24

    def test_rank_and_coxeter_invariants(self):
        for e in catalog():
            if e.is_leech:
                assert e.k == 0 and e.coxeter is None
            else:
                assert sum(c.rank for c in e.components) == 24
                assert all(c.coxeter == e.coxeter for c in e.components)

    def test_known_masses(self):
        assert catalog_entry("A1^24").mass == Q(141985575, 58032128)
        assert catalog_entry("Leech").mass == Q(153715, 123771648)
        d24 = catalog_entry("D24")
        assert d24.k == 1 and d24.mass == Q(1, 501397585920)

    def test_counts_are_integers(self):
        for e in catalog():
            assert e.count > 0
            assert Q(e.count) == e.mass * CO1_ORDER

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="'A25' is not a catalog entry"):
            catalog_entry("A25")

    def test_leech_has_no_root_system(self):
        with pytest.raises(ValueError):
            catalog_entry("Leech").root_system()

    def test_count_of_a_non_integer_mass_raises(self):
        entry = NiemeierEntry("A1^24", catalog_entry("A1^24").components,
                              Q(1, CO1_ORDER * 2))
        with pytest.raises(ValueError, match="not an integer"):
            entry.count


def fresh_catalog(monkeypatch):
    """The catalog parsed anew on its next read, by an empty cache in
    place of the process's, which comes back after the test."""
    monkeypatch.setattr(niemeier, "_catalog",
                        functools.cache(niemeier._catalog.__wrapped__))


def with_entry(monkeypatch, index, **changes):
    """niemeier.json as read by the catalog, with entry index changed."""
    read = niemeier._data

    def data(name):
        out = read(name)
        if name == "niemeier.json":
            out["entries"][index] = {**out["entries"][index], **changes}
        return out
    monkeypatch.setattr(niemeier, "_data", data)
    fresh_catalog(monkeypatch)


def test_catalog_is_parsed_once(monkeypatch):
    """Twenty catalog_entry calls read niemeier.json once, and catalog()
    gives a fresh list of the same entries each time."""
    reads, read = [], niemeier._data
    monkeypatch.setattr(niemeier, "_data",
                        lambda name: reads.append(name) or read(name))
    fresh_catalog(monkeypatch)
    for _ in range(20):
        assert catalog_entry("A1^24").name == "A1^24"
    assert reads == ["niemeier.json"]
    first = catalog()
    first.clear()
    assert catalog() is not first and len(catalog()) == 24
    assert reads == ["niemeier.json"]


@pytest.mark.parametrize("changes,message", [
    ({"components": ["A1^23"]}, "A1^24: component ranks must sum to 24"),
    ({"components": ["A1^22", "A2"]}, "A1^24: Coxeter numbers must agree")],
    ids=["ranks", "coxeter"])
def test_bad_catalog_entry_raises_value_error(monkeypatch, capsys, changes,
                                              message):
    with_entry(monkeypatch, 1, **changes)
    with pytest.raises(ValueError, match=re.escape(message)):
        catalog()
    assert run(["niemeier", "list"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_non_integer_count_fails_niemeier_list(monkeypatch, capsys):
    """A mass whose count is not an integer loads, fails its table1 clause
    and stops `niemeier list` with one line of error."""
    with_entry(monkeypatch, 1, mass="1/17")
    bad = [d for d, ok, _ in table1_consistency() if not ok]
    assert bad[0] == "A1^24: mass x |Co1| is a positive integer"
    assert run(["niemeier", "list"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not an integer" in err


class TestSubalgebra:
    def test_a2_12_dimension(self):
        rep = lemma_4_2_subalgebra(catalog_entry("A2^12"))
        assert rep.checks == {"dimension": 36, "associative": True}

    def test_a1_24_dimension(self):
        rep = lemma_4_2_subalgebra(catalog_entry("A1^24"))
        assert rep.checks["dimension"] == 48
        assert set(rep.charges) == {Q(1, 2)}

    def test_leech_rejected(self):
        with pytest.raises(ValueError):
            lemma_4_2_subalgebra(catalog_entry("Leech"))

    def test_d4_6_dimension(self):
        rep = lemma_4_2_subalgebra(catalog_entry("D4^6"))
        assert len(rep.idempotents) == 30
        assert rep.checks == {"dimension": 30, "associative": True}


class TestQuadSpace:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            F2QuadSpace(3)
        with pytest.raises(ValueError):
            F2QuadSpace(0)

    def test_hyperbolic_plane_values(self):
        sp = F2QuadSpace(2)
        assert [sp.q(v) for v in range(4)] == [0, 0, 0, 1]

    def test_polar_form_is_bilinear_pairing(self):
        sp = F2QuadSpace(4)
        for u in range(16):
            assert polar(sp, u, u) == 0  # characteristic 2: alternating
        assert polar(sp, 0b0001, 0b0010) == 1
        assert polar(sp, 0b0001, 0b0100) == 0

    def test_nondegenerate(self):
        sp = F2QuadSpace(6)
        for u in range(1, 64):
            assert any(polar(sp, u, v) for v in range(64))


class TestLagrangians:
    def test_formula_values(self):
        assert [lagrangian_extension_count(n) for n in range(5)] == \
            [1, 2, 6, 30, 270]

    def test_formula_rejects_negative(self):
        with pytest.raises(ValueError):
            lagrangian_extension_count(-1)

    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 10])
    def test_brute_force_matches(self, dim):
        assert brute_force_lagrangians(F2QuadSpace(dim)) == \
            lagrangian_extension_count(dim // 2)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            brute_force_lagrangians(F2QuadSpace(12))

    def test_recheck_catches_a_non_quadratic_q(self):
        # q = 1 exactly on weight-3 vectors: every pair of basis vectors of
        # span(0001, 0010, 0100) passes the polar test, yet 0111 is
        # non-singular, so only the re-check of the extension can see it.
        class WeightThree(F2QuadSpace):
            def q(self, v):
                return int(bin(v).count("1") == 3)

        with pytest.raises(ValueError, match="non-singular"):
            brute_force_lagrangians(WeightThree(6))


class WeightThree(F2QuadSpace):
    """q = 1 exactly on the weight-3 vectors: not a quadratic form."""

    def q(self, v):
        return int(bin(v).count("1") == 3)


class TestLagrangiansDifferential:
    """The echelon enumeration against the level-by-level reference."""

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_agrees_with_reference(self, dim):
        assert brute_force_lagrangians(F2QuadSpace(dim)) == \
            reference_lagrangians(F2QuadSpace(dim))

    @pytest.mark.parametrize("count", [brute_force_lagrangians,
                                       reference_lagrangians])
    def test_both_reject_a_non_quadratic_q(self, count):
        with pytest.raises(ValueError, match="non-singular"):
            count(WeightThree(6))


class TestTables:
    def test_table1_passes(self):
        clauses = table1_consistency()
        assert all(ok is True for _, ok, _ in clauses)
        assert len(clauses) == 25

    def test_table1_total(self):
        total = sum(e.count for e in catalog())
        assert total == lagrangian_extension_count(12)

    def test_table2_passes(self):
        assert all(ok is True for _, ok, _ in table2_consistency())

    def test_table2_anchor(self):
        rows = {r.symbol: r for r in table2_rows()}
        assert CO1_ORDER // rows["A_1"].stabilizer_order == 98280
        assert rows["0"].stabilizer_order == CO1_ORDER

    def test_missing_order_reported(self):
        rows = [Table2Row("A_1", 1, CO1_ORDER // 98280, ((98280, 1, "0"),))]
        clauses = table2_consistency(rows)
        # the child row "0" is absent
        assert any("missing" in d for d, ok, _ in clauses if not ok)

    def test_bad_edge_detected(self):
        rows = [Table2Row("A_1", 1, CO1_ORDER // 98280, ((1, 1, "0"),)),
                Table2Row("0", 0, CO1_ORDER, ())]
        assert [ok for _, ok, _ in table2_consistency(rows)] == [True, False]


def test_lemma_4_2_on_every_root_lattice_entry():
    """verify lemma4.2 passes on all 23 non-Leech entries, with 24 + k
    idempotents: l+1 per component along its default chain."""
    entries = [e for e in catalog() if not e.is_leech]
    assert len(entries) == 23
    for e in entries:
        [rep] = run_target("lemma4.2", e.name)
        assert rep.passed, (e.name, rep.clauses)
        assert rep.clauses[0][0] == f"dimension 24 + k = {24 + e.k}"


@pytest.mark.parametrize("broken,failure", [
    (None, None),
    ("charge", "charges match the closed forms (1/2, 7/10, 4/5, 1, 1/2, "
     "17/10, ...)  [idempotent 5 (component 1 A3, step 2): charge 17/10 != "
     "7/10]"),
    ("dimension", "dimension 24 + k = 32  [31 non-zero images]"),
    ("associative", "span is associative (e_i e_j = [i = j] e_i, so it is "
     "Q^n)  [idempotent 0 (component 0 A3, step 1) times idempotent 1 "
     "(component 0 A3, step 2) is not 0]")],
    ids=["None", "charge", "dimension", "associative"])
def test_niemeier_report_fails_on_a_failing_entry(broken, failure,
                                                  monkeypatch, capsys):
    """The report takes each entry's verdict from `niemeier sub`, which
    exits by verify lemma4.2: it passes entries whose images have the
    closed-form charges, number 24 + k and have no failing pair, and exits
    0 if all entries and both tables pass; one of them broken on A3^8
    fails that entry, names the failing clause, and exits 1.  The images
    are made from the closed forms, so no algebra is built; the closed
    forms read each entry's root system, built once per session."""
    def images(s):
        name = s.name
        sub = closed_images(name)
        if name == "A3^8" and broken == "charge":
            sub.charges[5] += 1
        elif name == "A3^8" and broken == "dimension":
            sub.checks["dimension"] -= 1
        elif name == "A3^8" and broken:
            sub.checks.update(associative=False, pair=(0, 1))
        return sub

    def never(rs):
        raise AssertionError(f"an algebra of {rs.spec_string()} built")
    monkeypatch.setattr(verify, "build", system)
    monkeypatch.setattr(verify, "build_A", never)
    code = run_report_script(monkeypatch, images)
    out = capsys.readouterr().out
    assert code == (1 if broken else 0)
    verdicts = re.findall(r"^\[(PASS|FAIL)\] lemma4\.2 \[(\S+)\] ", out,
                          re.M)
    assert len(verdicts) == 23
    assert [n for v, n in verdicts if v == "FAIL"] == (["A3^8"] if broken
                                                       else [])
    assert re.findall(r"^  FAIL (.*)$", out, re.M) == (
        [failure] if broken else [])
    assert out.rstrip().endswith("FAIL: A3^8" if broken else "PASS")
