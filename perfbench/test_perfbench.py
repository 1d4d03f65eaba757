"""Tests of the benchmark itself, on its smoke inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = run.SPEC
run.load_griess()
import workloads  # noqa: E402  (needs griess on the path first)


def bench(tmp_path, *args, cwd=run.ROOT):
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--seconds", "1", "--out", str(out), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc, out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    proc, out = bench(tmp_path, "--workload", workload, "--smoke",
                      "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}
    env = json.loads(lines[-2])["env"]
    assert env["backend"] == "fractions" and env["seed"] == 1
    # The smoke specs include A1^24, where thm3.1 and cor3.2 fail.
    known = 2 if workload == "verify_small" else 0
    assert result["failed"] == known * json.loads(out.read_text())[
        "env"]["passes"]


def test_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        proc, _ = bench(tmp_path, "--workload", "identity_solve", "--smoke",
                        "--trace", "1")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["exactlin.equations"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = bench(tmp_path, "--workload", "verify_small", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_refuses_another_backend(tmp_path):
    proc, out = bench(tmp_path, "--workload", "rank24_chain", "--smoke")
    assert proc.returncode == 0, proc.stderr
    other = json.loads(out.read_text())
    other["env"]["backend"] = "gmpy2"
    (tmp_path / "other.json").write_text(json.dumps(other))
    import compare
    assert compare.main(["--base", str(out), "--new", str(out)]) == 0
    assert compare.main(["--base", str(out),
                         "--new", str(tmp_path / "other.json")]) == 2


def _fake_cli(monkeypatch, payload):
    def fake_run(argv):
        print(json.dumps(payload))
        return 0 if payload["passed"] else 1
    monkeypatch.setattr(workloads.cli, "run", fake_run)


def _report(target, clauses):
    rep = {"target": target, "passed": all(ok for _, ok, _ in clauses),
           "clauses": [{"description": d, "passed": ok, "counterexample": c}
                       for d, ok, c in clauses]}
    return {"passed": rep["passed"], "reports": [rep]}


def test_known_failure_must_match_the_closed_form(monkeypatch):
    argv = ["verify", "thm3.1", "--spec", "A1^24", "--json"]
    # image rank 24 * (1 + 1) = 48 < dim B+ = 300 + 24
    _fake_cli(monkeypatch, _report("thm3.1 [A1^24]", [
        ("surjective", False, "rank 48 < dim 324")]))
    assert workloads._cli_verify(argv) is False
    _fake_cli(monkeypatch, _report("thm3.1 [A1^24]", [
        ("surjective", False, "rank 47 < dim 324")]))
    with pytest.raises(workloads.Mismatch):
        workloads._cli_verify(argv)


def test_any_other_failure_is_a_mismatch(monkeypatch):
    _fake_cli(monkeypatch, _report("lemma2.1 [A2]", [
        ("component A2: |Delta_1(alpha)| = 2h-4", False, "root 0")]))
    with pytest.raises(workloads.Mismatch):
        workloads._cli_verify(["verify", "lemma2.1", "--spec", "A2",
                               "--json"])


def test_closed_forms():
    assert workloads.num_positive("E8^2") == 240
    assert workloads.image_rank("A2^12") == 72
    assert workloads.bplus_dim("A2^12") == 336
    assert sum(workloads.chain_charges("A12^2")) == 24
    assert len(workloads.verify_small(1)) == 103


def test_host_pace_scales_by_the_probes_inside_an_interval():
    pace = run.HostPace()
    pace.samples = [(1.0, 0.004), (2.0, 0.002), (3.0, 0.002)]
    # 2 s of wall time holding 4 ms of probes, at half the reference pace
    assert pace.normalize(1.5, 3.5) == pytest.approx((2 - 0.004) / 2)
    # an interval with no probe inside uses all of them
    assert pace.normalize(5.0, 6.0) == pytest.approx(0.001 / (0.008 / 3))
