import json
import os
import subprocess
import sys

import pytest

import griess
from griess import rootalgebra, verify
from griess.bplus import PhiMap
from griess.cli import _build_parser, run
from griess.niemeier import catalog
from griess.ratio import Q, q_str
from griess.rootsys import RootSystem, build, parse_spec
from griess.verify import _two_n, check_size, run_target

from conftest import (basis_element, closed_images, no_identity_algebra,
                      run_report_script)


def run_captured(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def off_at_step_2(monkeypatch):
    """verify.closed_charges made one too high at step 2 of every block."""
    closed = verify.closed_charges
    monkeypatch.setattr(verify, "closed_charges", lambda *args: [
        (c + where.endswith(", step 2"), where) for c, where in closed(*args)])


class TestRoots:
    def test_text(self, capsys):
        code, out = run_captured(capsys, ["roots", "A2"])
        assert code == 0
        assert "N         3" in out

    def test_json(self, capsys):
        code, out = run_captured(capsys, ["roots", "D4", "--json"])
        data = json.loads(out)
        assert code == 0
        assert data["N"] == 12 and data["coxeter"] == [6]
        assert len(data["positive_roots"]) == 12

    @pytest.mark.parametrize("argv,part", [
        (["roots", "Z1"], None), (["roots", "A3+"], ""),
        (["roots", "+A3"], ""),
        (["verify", "prop2.2", "--spec", "A3++D4"], ""),
        # a zero multiplicity, a trailing newline, a non-ASCII digit
        (["roots", "A3^0+A2"], "A3^0"), (["roots", "A2^0"], None),
        (["verify", "lemma2.1", "--spec", "A3^0+A2"], "A3^0"),
        (["roots", "A2\n"], None), (["roots", "A\u0662"], None)])
    def test_bad_spec(self, capsys, argv, part):
        """A bad spec exits 2 with one line that names the whole spec and,
        in a sum, the bad part."""
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"cannot parse root system spec {argv[-1]!r}" in err
        assert (" at part " in err) is (part is not None)
        if part is not None:
            assert f" at part {part!r}" in err

    def test_size_guard(self):
        assert run(["roots", "A40"]) == 2
        assert run(["roots", "A40", "--force"]) == 0

    @pytest.mark.parametrize("command", ["roots", "algebra", "decompose"])
    def test_size_guard_runs_before_build(self, capsys, monkeypatch,
                                          command):
        def never(*args):
            raise AssertionError("roots built before the size guard")
        monkeypatch.setattr("griess.verify.build", never)
        assert run([command, "A40"]) == 2
        assert "2N = 1640" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,two_n", [
        (["roots", "A1^100000"], 200000),
        (["verify", "lemma2.1", "--spec", "A1^100000"], 200000),
        (["verify", "all", "--spec", "A2+A1^100000"], 200006)])
    def test_size_guard_lists_no_components(self, capsys, monkeypatch, argv,
                                            two_n):
        def never(*args):
            raise AssertionError("components listed before the size guard")
        # verify lists components only through rootsys
        monkeypatch.setattr("griess.rootsys.parse_spec", never)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: system has 2N = {two_n} > 1600 basis vectors; "
            "pass --force to run anyway"]

    @pytest.mark.parametrize("simple,error", [
        ([(2, 0)], "root 0, 2r = (2, 0): (2r, 2r) = 4 != 8"),
        ([(2, -2, 0), (0, -2, 2)], "triple closure violated at 2r = "
         "(0, -2, 2), 2r' = (2, -2, 0)"),
        ([(2, -2, 0), (2, 2, 0)], "component A2: 2N = 4 != lh = 6")])
    def test_bad_simple_roots_exit_2_in_one_line(self, capsys, monkeypatch,
                                                 simple, error):
        """A bad simple root breaks a construction invariant: a root's
        length, the closure of a non-orthogonal pair, or 2N = lh.  The build
        raises ValueError naming the root or the component, and the CLI
        exits 2 with one line of error, not a traceback."""
        monkeypatch.setattr("griess.rootsys._simple_roots",
                            lambda t: simple)
        assert run(["roots", f"A{len(simple)}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {error}"]

    def test_size_guard_reads_catalog_names(self):
        """A catalog name such as A5^4D4 is no spec; the guard takes its 2N
        from the entry."""
        entries = [e for e in catalog() if not e.is_leech]
        assert len(entries) == 23
        for e in entries:
            assert _two_n(e.name) == sum(t.rank * t.coxeter
                                         for t in e.components)
            check_size(e.name, force=False)

    def test_mixed_catalog_name_resolves_for_every_target(self, capsys):
        code, out = run_captured(
            capsys, ["verify", "lemma2.1", "--spec", "A5^4D4"])
        assert code == 0
        assert "component D4" in out
        code, out = run_captured(
            capsys, ["verify", "all", "--spec", "A5^4D4", "--json"])
        assert code == 1
        failed = [(r["target"], c["description"])
                  for r in json.loads(out)["reports"]
                  for c in r["clauses"] if not c["passed"]]
        # phi is not onto B+ of a direct sum (ROADMAP item 1, Bug 1)
        assert failed == [
            ("thm3.1 [A5^4D4]",
             "surjective (exact rank equals target dimension)"),
            ("thm3.1 [A5^4D4]", "kernel dimension = 2N - dim = -228")]

    @pytest.mark.parametrize("argv", [
        ["roots"], ["roots", "--json"], ["algebra"],
        ["algebra", "--kind", "bplus", "--json"], ["decompose", "--json"]])
    def test_catalog_name_as_spec(self, capsys, monkeypatch, argv):
        """roots, algebra and decompose take a catalog name such as A5^4D4
        and print what they print for its spec A5^4+D4; the size guard
        runs before the one build."""
        events, guard, make = [], verify.check_size, verify.build
        monkeypatch.setattr(verify, "check_size", lambda spec, force: (
            events.append("guard"), guard(spec, force))[1])
        monkeypatch.setattr(verify, "build", lambda spec: (
            events.append("build"), make(spec))[1])
        command, *flags = argv
        code, out = run_captured(capsys, [command, "A5^4D4", *flags])
        assert (code, events) == (0, ["guard", "build"])
        code, again = run_captured(capsys, [command, "A5^4+D4", *flags])
        if command == "decompose":
            # thm2.7's report names the system as it was given and is timed
            out, again = json.loads(out), json.loads(again)
            for data, name in ((out, "A5^4D4"), (again, "A5^4+D4")):
                assert data["report"].pop("target") == f"thm2.7 [{name}]"
                data["report"]["elapsed"] = 0
        assert (code, again) == (0, out)

    def test_mixed_catalog_name_gets_a_report(self, capsys):
        code, out = run_captured(
            capsys, ["verify", "lemma4.2", "--spec", "A5^4D4", "--json"])
        assert code in (0, 1)
        [report] = json.loads(out)["reports"]
        assert report["target"] == "lemma4.2 [A5^4D4]"


class TestAlgebraDump:
    @pytest.mark.parametrize("kind,dim", [("A", 6), ("T", 3), ("bplus", 6)])
    def test_schema(self, capsys, kind, dim):
        code, out = run_captured(
            capsys, ["algebra", "A2", "--kind", kind, "--json"])
        data = json.loads(out)
        assert code == 0
        assert len(data["basis"]) == dim
        assert len(data["gram"]) == dim
        assert all(len(entry) == 3 for entry in data["products"])


class TestDecompose:
    def test_default_chain(self, capsys):
        code, out = run_captured(capsys, ["decompose", "A2", "--json"])
        data = json.loads(out)
        assert code == 0
        assert data["charges"] == ["1/2", "7/10", "4/5"]
        assert "checks" not in data
        report = data["report"]
        assert (report["target"], report["passed"]) == ("thm2.7 [A2]", True)
        assert {"description": "sum to identity", "passed": True,
                "counterexample": None} in report["clauses"]

    def test_explicit_chain(self, capsys):
        """thm2.7 judges a user chain as it does the default chains, with
        the charges, the certificate's four clauses and the sum; on D4,
        0,1,2,3 is the default chain, judged and named as such."""
        code, out = run_captured(
            capsys, ["decompose", "D4", "--chain", "0,1,2,3", "--json"])
        assert code == 0
        data = json.loads(out)
        assert len(data["charges"]) == 5
        assert data["report"]["target"] == "thm2.7 [D4]"
        assert [(c["description"].split(" (")[0], c["passed"])
                for c in data["report"]["clauses"]] == [
            ("charges match the closed forms", True),
            ("sum to identity", True), ("pairwise products", True),
            ("pairwise form", True),
            ("span of the 5 idempotents is associative", True),
            ("charges sum to c(delta) = l = 4", True)]

    @pytest.mark.parametrize("spec,chain,charges", [
        ("D5", "4,3,2,1,0", "1/2, 1/2, 1, 1, 1, 1"),
        ("E6", "5,4,3,2,1,0", "1/2, 7/10, 4/5, 6/7, 8/7, 8/7, ..."),
        ("A2+A2", "0,2", "1/2, 1/2, 3")], ids=["D5", "E6", "A2+A2"])
    def test_user_chain_charges_clause(self, capsys, monkeypatch, spec,
                                       chain, charges):
        """A user chain's report has the charges clause, which says that it
        extends the paper's statement; A2+A2's {0,2} has two connected
        parts.  With the closed form one too high at step 2 the clause
        fails and names the chain's step 2."""
        argv = ["decompose", spec, "--chain", chain, "--json"]
        code, out = run_captured(capsys, argv)
        assert code == 0
        [first, *_] = json.loads(out)["report"]["clauses"]
        assert first == {
            "description": f"charges match the closed forms ({charges}) "
            "(extends the paper's statement to any nested chain)",
            "passed": True, "counterexample": None}
        off_at_step_2(monkeypatch)
        code, out = run_captured(capsys, argv)
        assert code == 1
        second = charges.split(", ")[1]
        assert [c["counterexample"] for c in json.loads(out)["report"][
            "clauses"] if not c["passed"]] == [
            f"idempotent 1 (chain, step 2): charge {second} != "
            f"{q_str(Q(second) + 1)}"]

    @pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
    def test_doubled_forms_fail_the_charges(self, capsys, monkeypatch,
                                            json_out):
        """A's form table read over 1 instead of 2 doubles every form and
        charge; the certificate still holds, but decompose exits 1 by
        thm2.7's charges clauses, which it names."""
        make = rootalgebra.StructureAlgebra

        def doubled(labels, product, form):
            return make(labels, product, lambda: (1, form()[1]))
        monkeypatch.setattr(rootalgebra, "StructureAlgebra", doubled)
        code, out = run_captured(capsys, ["decompose", "A3"]
                                 + ["--json"] * json_out)
        assert code == 1
        failed = [
            ("charges match the closed forms (1, 7/5, 8/5, 2)",
             "idempotent 0 (component 0 A3, step 1): charge 1 != 1/2"),
            ("charges sum to c(delta) = l = 3", "6")]
        if json_out:
            assert [(c["description"], c["counterexample"])
                    for c in json.loads(out)["report"]["clauses"]
                    if not c["passed"]] == failed
        else:
            lines = out.splitlines()
            assert lines[3].startswith("[FAIL] thm2.7 [A3] (6 clauses, ")
            assert [line for line in lines if line.startswith("  FAIL")] == [
                f"  FAIL {d}  [{x}]" for d, x in failed]

    @pytest.mark.parametrize("spec,l", [("D4", 4), ("E8", 8)])
    def test_d_and_e_default_chains(self, capsys, spec, l):
        code, out = run_captured(capsys, ["decompose", spec, "--json"])
        data = json.loads(out)
        assert code == 0
        assert len(data["charges"]) == l + 1
        assert data["report"]["target"] == f"thm2.7 [{spec}]"
        assert data["report"]["passed"] is True

    def test_bad_chain(self):
        assert run(["decompose", "A2", "--chain", "0,0"]) == 2

    @pytest.mark.parametrize("chain", ["0,,1", "0,1,", "", "x", "0,1.5",
                                       "0,5", "-1", "1,0,1"])
    def test_empty_chain_index_refused_before_build(self, capsys,
                                                    monkeypatch, chain):
        """An empty, non-integer, out-of-range or repeated index is refused
        in one line that names --chain and the index, before the root
        system of A3 (rank 3) is built."""
        def never(*args):
            raise AssertionError("roots built before --chain was read")
        monkeypatch.setattr("griess.verify.build", never)
        assert run(["decompose", "A3", "--chain", chain]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = {"x": "has index 'x', which is not an integer",
                 "0,1.5": "has index '1.5', which is not an integer",
                 "0,5": "has index 5, out of range for rank 3 (0 to 2)",
                 "-1": "has index -1, out of range for rank 3 (0 to 2)",
                 "1,0,1": "repeats index 1"}.get(chain, "has an empty index")
        assert captured.err.strip().splitlines() == [
            f"error: --chain {chain!r} {error}"]


class TestNiemeier:
    def test_list(self, capsys):
        code, out = run_captured(capsys, ["niemeier", "list", "--json"])
        data = json.loads(out)
        assert code == 0
        assert len(data["entries"]) == 24

    def test_sub(self, capsys):
        code, out = run_captured(capsys, ["niemeier", "sub", "A2^12"])
        assert code == 0
        assert "36" in out

    def test_sub_unknown(self, capsys):
        assert run(["niemeier", "sub", "B2"]) == 2
        assert capsys.readouterr().err == (
            "error: 'B2' is not a catalog entry name; "
            "see `griess niemeier list`\n")

    def test_sub_leech(self, capsys):
        assert run(["niemeier", "sub", "Leech"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the Leech entry carries no "
                                "root-system subalgebra\n")

    @pytest.mark.parametrize("argv", [
        ["roots", "Leech"], ["algebra", "Leech"], ["decompose", "Leech"],
        ["decompose", "Leech", "--chain", "0"],
        ["verify", "thm2.7", "--spec", "Leech"],
        ["verify", "all", "--spec", "Leech"], ["niemeier", "sub", "Leech"]])
    def test_leech_refused_by_every_command(self, capsys, monkeypatch, argv):
        """The catalog name Leech, which has no root system, is refused by
        verify.resolve in one line, before any build, and not parsed as a
        spec."""
        def never(*args):
            raise AssertionError("a root system was built for Leech")
        monkeypatch.setattr("griess.verify.build", never)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the Leech entry carries no "
                                "root-system subalgebra\n")

    def test_sub_names_the_bad_name_and_the_catalog(self, capsys):
        assert run(["niemeier", "sub", "A2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: 'A2' is not a catalog entry name; "
                                "see `griess niemeier list`\n")

    def test_sub_d4_6(self, capsys):
        code, out = run_captured(capsys, ["niemeier", "sub", "D4^6"])
        assert code == 0
        charges = out.splitlines()[1].split(None, 1)[1].split(", ")
        assert charges == ["1/2", "7/10", "4/5", "1", "1"] * 6

    @pytest.mark.parametrize("replace", [
        lambda images: images[-1].algebra.zero(),
        lambda images: images[-2],
        lambda images: images[-1] + images[-1]],
        ids=["zero", "dependent", "twice"])
    def test_sub_exits_1_on_a_failed_check(self, capsys, monkeypatch,
                                           replace, request):
        """The third image of A2^12 made 0 fails the dimension, a copy of
        the second or twice itself the associativity, and each the charges.
        `niemeier sub`, `verify lemma4.2` and scripts/niemeier_report.py
        fail A2^12 alone, with the same clauses and counterexamples; the
        report's other entries are made from the closed forms."""
        def failures(out):
            return [line.strip() for line in out.splitlines()
                    if line.strip().startswith("FAIL ")]
        seen = []
        for argv in (["niemeier", "sub", "A2^12"],
                     ["verify", "lemma4.2", "--spec", "A2^12"]):
            patch_image(monkeypatch, 3, replace)
            code, out = run_captured(capsys, argv)
            assert code == 1
            seen.append(failures(out))
        patch_image(monkeypatch, 3, replace)
        built = verify.System.images.func
        assert run_report_script(monkeypatch, lambda s: (
            built(s) if s.name == "A2^12" else closed_images(s.name))) == 1
        out = capsys.readouterr().out
        assert out.rstrip().endswith("overall: FAIL: A2^12")
        seen.append(failures(out))
        assert seen[0] == seen[1] == seen[2]
        assert [line.split()[1] for line in seen[0]] == {
            "zero": ["dimension", "charges"], "dependent": ["charges", "span"],
            "twice": ["charges", "span"]}[request.node.callspec.id]

    @pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
    def test_sub_exits_1_naming_a_wrong_charge(self, capsys, monkeypatch,
                                               json_out):
        """Charges that differ from verify.closed_charges fail `niemeier
        sub`, which names the first mismatch, its component and its step."""
        off_at_step_2(monkeypatch)
        code, out = run_captured(capsys, ["niemeier", "sub", "A2^12"]
                                 + ["--json"] * json_out)
        assert code == 1
        bad = "idempotent 1 (component 0 A2, step 2): charge 7/10 != 17/10"
        if json_out:
            data = json.loads(out)
            assert "charge_mismatch" not in data and "checks" not in data
            assert [c["counterexample"] for c in data["report"]["clauses"]
                    if not c["passed"]] == [bad]
        else:
            [line] = [line for line in out.splitlines()
                      if line.startswith("  FAIL")]
            assert line.startswith("  FAIL charges match the closed forms")
            assert line.endswith(f"  [{bad}]")


def patch_image(monkeypatch, n, replace):
    """PhiMap.apply with its n-th image replaced by replace(images so
    far)."""
    apply, images = PhiMap.apply, []

    def patched(phi, a):
        images.append(apply(phi, a))
        return replace(images) if len(images) == n else images[-1]
    monkeypatch.setattr(PhiMap, "apply", patched)


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out = run_captured(capsys, ["verify", "thm2.7", "--spec", "A2"])
        assert code == 0
        assert "1/2, 7/10, 4/5" in out

    def test_lemma21_d4(self, capsys):
        code, out = run_captured(
            capsys, ["verify", "lemma2.1", "--spec", "D4"])
        assert code == 0
        assert "2h-4 = 8" in out

    def test_lemma21_names_a_root_with_a_wrong_degree(self, monkeypatch):
        rs = build("A3")
        rs.neighbours[2].pop()
        monkeypatch.setattr("griess.verify.build", lambda spec: rs)
        rep = run_target("lemma2.1", "A3")[0]
        assert not rep.passed
        assert rep.clauses[0][2] == "root 2: |Delta_1| = 3 != 4"

    def test_all_a1(self, capsys):
        assert run(["verify", "all", "--spec", "A1"]) == 0
        capsys.readouterr()

    def test_json_matches_text_verdict(self, capsys):
        _, text = run_captured(capsys, ["verify", "lemma2.4", "--spec", "A3"])
        _, raw = run_captured(
            capsys, ["verify", "lemma2.4", "--spec", "A3", "--json"])
        data = json.loads(raw)
        assert data["passed"] is ("overall: PASS" in text)

    def test_deterministic(self, capsys):
        _, first = run_captured(capsys, ["verify", "table2", "--json"])
        _, second = run_captured(capsys, ["verify", "table2", "--json"])
        first = json.loads(first)
        second = json.loads(second)
        first["reports"][0]["elapsed"] = second["reports"][0]["elapsed"] = 0
        assert first == second

    @pytest.mark.parametrize("target", ["lemma2.1", "thm3.1"])
    def test_one_build_per_target(self, capsys, monkeypatch, target):
        init, builds = RootSystem.__init__, []

        def counted(rs, components):
            builds.append(components)
            init(rs, components)
        monkeypatch.setattr(RootSystem, "__init__", counted)
        assert run(["verify", target, "--spec", "A2"]) == 0
        capsys.readouterr()
        assert len(builds) == 1

    @pytest.mark.parametrize("spec", ["A3", "D4", "A2^12"])
    def test_all_builds_each_spec_once(self, monkeypatch, spec):
        """verify all runs a spec's targets on one System, lemma4.2 on a
        catalog name included: one root system built, the chain certified
        once for thm2.7 and lemma2.5, and each report as the target gives
        it alone, but for elapsed."""
        init, builds = RootSystem.__init__, []
        certify, certified = verify.certify_chain, []

        def counted(rs, components):
            builds.append(components)
            init(rs, components)

        def counted_certify(rep, ra, dec):
            certified.append(dec)
            certify(rep, ra, dec)
        monkeypatch.setattr(RootSystem, "__init__", counted)
        monkeypatch.setattr(verify, "certify_chain", counted_certify)
        reports = run_target("all", spec)
        assert len(builds) == 1
        assert len(certified) == 1
        alone = [run_target(t, spec)[0] for t in verify.targets_for_spec(spec)]
        alone += [run_target(t)[0] for t in verify.SPEC_FREE]
        assert [(r.target, r.clauses) for r in reports] == [
            (r.target, r.clauses) for r in alone]

    # The benchmark's verify_small counts these clauses as known failures
    # by parsing their counterexamples: phi on a direct sum is not onto
    # B+, whose S^2(H) holds the cross terms of the components.
    @pytest.mark.parametrize("target,clauses", [
        ("thm3.1", [
            ("algebra homomorphism on all basis pairs", True, None),
            ("isometry on all basis pairs", True, None),
            ("surjective (exact rank equals target dimension)", False,
             "rank 48 < dim 324"),
            ("kernel dimension = 2N - dim = -276", False, "0")]),
        ("cor3.2", [
            ("bijective: rank 48 = 2N = dim target", False,
             "rank 48, 2N 48, dim 324")])])
    def test_known_phi_failures_on_a1_24(self, capsys, target, clauses):
        code, out = run_captured(
            capsys, ["verify", target, "--spec", "A1^24", "--json"])
        assert code == 1
        [report] = json.loads(out)["reports"]
        assert report["target"] == f"{target} [A1^24]"
        assert [(c["description"], c["passed"], c["counterexample"])
                for c in report["clauses"]] == clauses

    @pytest.mark.parametrize("spec", ["A1^24", "A2^12"])
    def test_known_failures_keep_the_text_the_benchmark_reads(self, capsys,
                                                              spec):
        """The benchmark counts a failing thm3.1 or cor3.2 clause on a
        direct sum as a known failure when its counterexample holds the
        image rank, the sum of l(l+1)/2 + N over the components, or is the
        kernel dimension 2N - rank; a rewrite of the clauses keeps both."""
        comps = parse_spec(spec)
        rank = sum(c.rank * (c.rank + 1) // 2 + c.num_positive for c in comps)
        two_n = 2 * sum(c.num_positive for c in comps)
        failed = {}
        for target in ("thm3.1", "cor3.2"):
            code, out = run_captured(
                capsys, ["verify", target, "--spec", spec, "--json"])
            assert code == 1
            [report] = json.loads(out)["reports"]
            failed[target] = [c["counterexample"] for c in report["clauses"]
                              if not c["passed"]]
        surjective, kernel = failed["thm3.1"]
        assert f"rank {rank}" in surjective
        assert kernel == str(two_n - rank)
        [bijective] = failed["cor3.2"]
        assert f"rank {rank}" in bijective

    def test_unknown_target(self):
        assert run(["verify", "lemma9.9"]) == 2

    def test_spec_required(self, capsys):
        assert run(["verify", "thm2.7"]) == 2

    @pytest.mark.parametrize("target", verify.SPEC_FREE)
    def test_spec_free_target_refuses_a_spec(self, capsys, target):
        """A spec-free target given --spec exits 2 in one line; `all
        --spec` still runs the spec's targets (test_all_a1)."""
        assert run(["verify", target, "--spec", "A2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: target {target} takes no "
                                "root-system spec\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "lemma4.2", "--spec", "A24", "--chain", "0,99"],
        ["verify", "thm2.7", "--spec", "A3", "--chain", "7"],
        ["verify", "lemma4.2", "--spec", "D4^6", "--chain", "0,4"],
        ["verify", "lemma4.2", "--spec", "D4^6", "--chain", ""]])
    def test_chain_refused_before_build(self, capsys, monkeypatch, argv):
        """verify takes no --chain: every component has its default chain."""
        def never(*args):
            raise AssertionError("roots built before --chain was refused")
        monkeypatch.setattr("griess.rootsys.RootSystem.__init__", never)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines()[-1].startswith(
            "griess: error: unrecognized arguments: --chain")

    @pytest.mark.parametrize("replace,failed", [
        (lambda images: images[-1].algebra.zero(),
         [("dimension 24 + k = 30", "29 non-zero images"),
          ("charges match the closed forms",
           "idempotent 9 (component 1 D4, step 5) is zero: charge 0 != 1")]),
        (lambda images: images[-2],
         [("span is associative", "idempotent 8 (component 1 D4, step 4) "
           "times idempotent 9 (component 1 D4, step 5) is not 0")])],
        ids=["zero", "dependent"])
    def test_bad_image_fails_its_clauses(self, capsys, monkeypatch, replace,
                                         failed):
        """A zero image leaves the span one dimension short and fails the
        charges clause, which names it, its component and its step; a copy
        of the image before it (same charge) fails the span clause, which
        names both idempotents of the pair likewise; nothing raises."""
        patch_image(monkeypatch, 10, replace)
        code, out = run_captured(
            capsys, ["verify", "lemma4.2", "--spec", "D4^6", "--json"])
        assert code == 1
        [report] = json.loads(out)["reports"]
        assert [(c["description"].split(" (")[0], c["counterexample"])
                for c in report["clauses"] if not c["passed"]] == failed

    def test_wrong_charge_fails_one_clause(self, capsys, monkeypatch):
        off_at_step_2(monkeypatch)
        code, out = run_captured(
            capsys, ["verify", "thm2.7", "--spec", "A2+A3", "--json"])
        assert code == 1
        [report] = json.loads(out)["reports"]
        assert [c["counterexample"] for c in report["clauses"]
                if not c["passed"]] == [
            "idempotent 1 (component 0 A2, step 2): charge 7/10 != 17/10"]

    def test_short_closed_forms_fail_the_count(self, capsys, monkeypatch):
        """closed_charges one step short on every block: thm2.7 and lemma2.6
        name the count of idempotents in their charges clause."""
        closed = verify.closed_charges
        monkeypatch.setattr(verify, "closed_charges",
                            lambda *args: closed(*args)[:-1])
        for target in ("thm2.7", "lemma2.6"):
            code, out = run_captured(
                capsys, ["verify", target, "--spec", "A2+A3", "--json"])
            assert code == 1
            [report] = json.loads(out)["reports"]
            assert [c["counterexample"] for c in report["clauses"]
                    if not c["passed"]] == ["7 idempotents, expected 5"]

    def test_wrong_tail_fails_thm_2_7_only(self, capsys, monkeypatch):
        """Each block's tail off in closed_charges: thm2.7 fails at the
        first tail, and lemma2.6, which leaves the tails out, passes."""
        closed = verify.closed_charges
        monkeypatch.setattr(verify, "closed_charges", lambda *args: [
            *closed(*args)[:-1], (99, closed(*args)[-1][1])])
        code, out = run_captured(
            capsys, ["verify", "thm2.7", "--spec", "A2+A3", "--json"])
        assert code == 1
        [report] = json.loads(out)["reports"]
        assert [c["counterexample"] for c in report["clauses"]
                if not c["passed"]] == [
            "idempotent 2 (component 0 A2, step 3): charge 4/5 != 99"]
        assert run(["verify", "lemma2.6", "--spec", "A2+A3"]) == 0
        capsys.readouterr()

    def test_section_2_targets_on_d4(self, capsys):
        """eq2.5, lemma2.5, lemma2.6 and thm2.7 run and pass on D4, and
        each clause says that it extends the paper's type-A statement;
        eq2.5 reads 2l/(h+2) = 1."""
        note = " (extends the paper's type-A statement to D and E)"
        for target in ("eq2.5", "lemma2.5", "lemma2.6", "thm2.7"):
            code, out = run_captured(
                capsys, ["verify", target, "--spec", "D4", "--json"])
            assert code == 0
            [report] = json.loads(out)["reports"]
            assert report["clauses"][0]["description"].endswith(note)
        assert report["clauses"][0]["description"].startswith(
            "charges match the closed forms (1/2, 7/10, 4/5, 1, 1)")
        code, out = run_captured(capsys, ["verify", "eq2.5", "--spec", "D4"])
        assert "c(delta - epsilon) = sum of 2l/(h+2) = 1" + note in out

    @pytest.mark.parametrize("spec", ["A3", "D4"])
    def test_doubled_forms_fail_lemma_2_6_at_step_1(self, capsys,
                                                    monkeypatch, spec):
        """A's form read over 1 instead of 2 doubles every charge: lemma2.6
        fails at the first idempotent, against the closed form 1/2."""
        make = rootalgebra.StructureAlgebra
        monkeypatch.setattr(rootalgebra, "StructureAlgebra", lambda labels,
                            product, form: make(labels, product,
                                                lambda: (1, form()[1])))
        code, out = run_captured(
            capsys, ["verify", "lemma2.6", "--spec", spec, "--json"])
        assert code == 1
        [report] = json.loads(out)["reports"]
        assert [c["counterexample"] for c in report["clauses"]
                if not c["passed"]] == [
            f"idempotent 0 (component 0 {spec}, step 1): charge 1 != 1/2"]

    @pytest.mark.parametrize("spec", ["A3", "D4"])
    def test_perturbed_identity_fails_lemma_2_5(self, capsys, monkeypatch,
                                                spec):
        """One coefficient of the closed identity of {0, 1} changed:
        thm2.7's pairwise products fail at eps_2, and lemma2.5 fails by
        citing them."""
        closed = rootalgebra._closed_identity

        def perturbed(ra, simple, with_u=False):
            e = closed(ra, simple, with_u)
            if frozenset(simple) != {0, 1} or with_u:
                return e
            return e + ra.alg.element({min(e.coeffs): Q(1, 7)})
        monkeypatch.setattr(rootalgebra, "_closed_identity", perturbed)
        failed = {}
        for target in ("thm2.7", "lemma2.5"):
            code, out = run_captured(
                capsys, ["verify", target, "--spec", spec, "--json"])
            assert code == 1
            [report] = json.loads(out)["reports"]
            failed[target] = {c["description"].split(" (")[0]:
                              c["counterexample"]
                              for c in report["clauses"] if not c["passed"]}
        products = failed["thm2.7"]["pairwise products"]
        assert products.startswith("block 0: eps_2 * t(")
        assert sorted(failed["lemma2.5"].values()) == sorted(
            f"thm2.7: {failed['thm2.7'][clause]}"
            for clause in ("pairwise products", "pairwise form"))

    @pytest.mark.parametrize("target,closed", [("prop2.2", "delta"),
                                               ("lemma2.3", "epsilon")])
    @pytest.mark.parametrize("spec", ["A3", "D4"])
    @pytest.mark.parametrize("at", ["first", "last"])
    def test_identity_off_at_one_coefficient_fails(self, capsys, monkeypatch,
                                                   target, closed, spec, at):
        """delta or epsilon with one coefficient 1/7 off: the clause fails
        and names the first basis vector it does not fix, by element
        products; off at b_0, that is b_0 itself, since t(0)^2 != 0."""
        exact, made = getattr(verify, closed), []

        def off(ra):
            k = 0 if at == "first" else ra.alg.dim - 1
            made.append(exact(ra) + ra.alg.element({k: Q(1, 7)}))
            return made[-1]
        monkeypatch.setattr(verify, closed, off)
        code, out = run_captured(
            capsys, ["verify", target, "--spec", spec, "--json"])
        assert code == 1
        [x], alg = made, made[0].algebra
        j = next(j for j in range(alg.dim)
                 if x * basis_element(alg, j) != basis_element(alg, j))
        assert at == "last" or j == 0
        [report] = json.loads(out)["reports"]
        assert [(c["passed"], c["counterexample"])
                for c in report["clauses"]] == [
            (False, f"basis vector {j} ({alg.basis_labels[j]}) is not fixed")]

    @pytest.mark.parametrize("x", ["zero", "b_0"])
    def test_identity_clause_fails_with_no_identity(self, x):
        """On an algebra with no identity, the identity clause fails at its
        first basis vector whatever the element."""
        alg, rep = no_identity_algebra(), verify.VerifyReport("identity")
        verify._add_identity_clause(
            rep, alg, alg.zero() if x == "zero" else basis_element(alg, 0),
            x, "N")
        assert rep.clauses == [
            (f"{x} fixes every basis vector of N, so it is N's identity (an "
             "identity is unique)", False, "basis vector 0 (n) is not fixed")]

    def test_formula41_at_the_largest_dimension(self, capsys):
        code, out = run_captured(
            capsys, ["verify", "formula4.1", "--max-dim", "10", "--json"])
        assert code == 0
        [report] = json.loads(out)["reports"]
        assert [c["passed"] for c in report["clauses"]] == [True] * 6
        assert report["clauses"][-1]["description"] == \
            "dim 10: brute force 4590 = formula 4590"

    @pytest.mark.parametrize("argv", [
        ["verify", "formula4.1", "--max-dim", "12"],
        ["verify", "formula4.1", "--max-dim", "-3"],
        ["verify", "all", "--max-dim", "-1"],
        ["verify", "all", "--max-dim", "12"],
        ["verify", "all", "--spec", "A1", "--max-dim", "12"]])
    def test_max_dim_guard_runs_first(self, capsys, monkeypatch, argv):
        def never(*args):
            raise AssertionError("work started before the size guard")
        monkeypatch.setattr("griess.verify.brute_force_lagrangians", never)
        monkeypatch.setattr("griess.verify.build", never)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1


def fresh_process(argv, **kwargs):
    """python -m griess argv in a new process, griess imported from the
    same source tree as here."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(griess.__file__)))
    return subprocess.run([sys.executable, "-m", "griess", *argv], env=env,
                          timeout=120, **kwargs)


class TestProcess:
    def test_runs_in_one_process_match_fresh_processes(self, capsys):
        """The one parser of the process gives each call the exit code and
        output of its own process: different subcommands and flags, a
        usage error from the library and one from argparse."""
        argvs = [["niemeier", "list", "--json"],
                 ["roots", "A2", "--list-roots"],
                 ["verify", "thm2.7"],
                 ["roots", "A2", "--max-dim", "3"]]
        got = []
        for argv in argvs:
            code = run(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        assert _build_parser() is _build_parser()
        want = [fresh_process(argv, capture_output=True, text=True)
                for argv in argvs]
        assert got == [(p.returncode, p.stdout, p.stderr) for p in want]
        assert [code for code, _, _ in got] == [0, 0, 2, 2]

    def test_closed_stdout_exits_1_without_traceback(self):
        """A reader that is gone before the first write, as after
        `griess niemeier list | head -2`, ends the run with exit 1 and
        nothing on stderr."""
        read, write = os.pipe()
        os.close(read)
        try:
            proc = fresh_process(["niemeier", "list"], stdout=write,
                                 stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")
