import json
import os
import subprocess
import sys

import pytest

import griess
from griess import verify
from griess.bplus import PhiMap
from griess.cli import _build_parser, run
from griess.niemeier import catalog
from griess.rootsys import RootSystem, build, parse_spec
from griess.verify import _two_n, check_size, run_target


def run_captured(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


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

    def test_bad_spec(self, capsys):
        assert run(["roots", "Z1"]) == 2

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
        assert run_captured(capsys, [command, "A5^4+D4", *flags]) == (0, out)

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
        assert data["checks"]["sum_to_identity"] is True

    def test_explicit_chain(self, capsys):
        code, out = run_captured(
            capsys, ["decompose", "D4", "--chain", "0,1,2,3", "--json"])
        assert code == 0
        assert len(json.loads(out)["charges"]) == 5

    @pytest.mark.parametrize("spec,l", [("D4", 4), ("E8", 8)])
    def test_d_and_e_default_chains(self, capsys, spec, l):
        code, out = run_captured(capsys, ["decompose", spec, "--json"])
        data = json.loads(out)
        assert code == 0
        assert len(data["charges"]) == l + 1
        assert all(data["checks"].values())

    def test_bad_chain(self):
        assert run(["decompose", "A2", "--chain", "0,0"]) == 2

    @pytest.mark.parametrize("chain", ["0,,1", "0,1,", ""])
    def test_empty_chain_index_refused_before_build(self, capsys,
                                                    monkeypatch, chain):
        def never(*args):
            raise AssertionError("roots built before --chain was read")
        monkeypatch.setattr("griess.verify.build", never)
        assert run(["decompose", "A3", "--chain", chain]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: --chain {chain!r} has an empty index"]


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

    def test_sub_unknown(self):
        assert run(["niemeier", "sub", "B2"]) == 2

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

    def test_sub_exits_1_on_a_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "griess.algebra.StructureAlgebra.is_associative_span",
            lambda alg, elements: False)
        code, _ = run_captured(capsys, ["niemeier", "sub", "A2^12"])
        assert code == 1


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
        catalog name included: one root system built, and each report as
        the target gives it alone, but for elapsed."""
        init, builds = RootSystem.__init__, []

        def counted(rs, components):
            builds.append(components)
            init(rs, components)
        monkeypatch.setattr(RootSystem, "__init__", counted)
        reports = run_target("all", spec)
        assert len(builds) == 1
        alone = [run_target(t, spec)[0] for t in
                 (*verify.targets_for_spec(spec), *verify.SPEC_FREE)]
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
         ("charges match the closed forms",
          "idempotent 9 (component 1 D4, step 5) is zero: charge 0 != 1")),
        (lambda images: images[-2],
         ("span is associative", "idempotent 9 (component 1 D4, step 5) "
          "lies in the span of the images before it"))],
        ids=["zero", "dependent"])
    def test_bad_image_fails_one_clause(self, capsys, monkeypatch, replace,
                                        failed):
        """A zero image fails the charges clause, which names it, its
        component and its step; a copy of the image before it (same charge)
        fails the span clause, which names it likewise; nothing raises."""
        apply, images = PhiMap.apply, []

        def patched(phi, a):
            images.append(apply(phi, a))
            return replace(images) if len(images) == 10 else images[-1]
        monkeypatch.setattr(PhiMap, "apply", patched)
        code, out = run_captured(
            capsys, ["verify", "lemma4.2", "--spec", "D4^6", "--json"])
        assert code == 1
        [report] = json.loads(out)["reports"]
        assert [(c["description"].split(" (")[0], c["counterexample"])
                for c in report["clauses"] if not c["passed"]] == [failed]

    def test_wrong_charge_fails_one_clause(self, capsys, monkeypatch):
        closed = verify.closed_charges

        def off(comp):
            out = closed(comp)
            out[1] += 1
            return out
        monkeypatch.setattr(verify, "closed_charges", off)
        code, out = run_captured(
            capsys, ["verify", "thm2.7", "--spec", "A2+A3", "--json"])
        assert code == 1
        [report] = json.loads(out)["reports"]
        assert [c["counterexample"] for c in report["clauses"]
                if not c["passed"]] == [
            "idempotent 1 (component 0 A2, step 2): charge 7/10 != 17/10"]

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
