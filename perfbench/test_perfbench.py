"""Tests of the benchmark itself (not of tworb).

    python3 -m pytest -q perfbench

Every run here uses the tiny sizes, so none of them is a measurement.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from tracer import Tracer, self_check
from tworb import cli, linalg, orbits, parabolic, zeta
from tworb.parabolic import GenericityFailure

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke():
    return {(w, t): _run(w, t) for w in run.WORKLOADS for t in (0, 1)}


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_emits_the_spec_metrics(smoke, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        detail, result = smoke[(workload, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], detail["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
        assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(detail["stamp"]) >= {"python", "sympy", "nproc", "git_sha",
                                    "git_dirty"}


def test_bypassed_layers_read_zero(smoke):
    def metrics(workload):
        return {k: v["value"] for k, v in
                smoke[(workload, 1)][1]["metrics"].items()}

    lf = metrics("local_factors")
    assert all(v == 0 for k, v in lf.items()
               if k.startswith(("fields.", "linalg.")))
    assert lf["ratfun.construct.calls"] > 0
    for workload in ("induction", "finite_census"):
        m = metrics(workload)
        assert all(v == 0 for k, v in m.items() if k.startswith("ratfun."))
        assert m["fields.mul.calls"] > 0 and m["linalg.rank_F.calls"] > 0


def test_traced_digests_equal_untraced(smoke):
    for workload in run.WORKLOADS:
        assert smoke[(workload, 0)][0]["digests"] == \
            smoke[(workload, 1)][0]["digests"]


def _digests(workload, seed):
    return run.digests(worker.run_pass(workload, seed, "tiny"))


def test_a_new_seed_changes_only_the_seeded_workloads():
    for workload in ("induction", "finite_census"):
        assert _digests(workload, 1)["verdicts"] == \
            _digests(workload, 2)["verdicts"]  # same cases, same verdicts
        assert _digests(workload, 1) != _digests(workload, 2)
    assert _digests("local_factors", 1) == _digests("local_factors", 2)


def _fail_ratio(out):
    rows = [r for ph in out["phases"] for r in ph["rows"]]
    return sum(not r[1] for r in rows) / len(rows)


def _break_everywhere(monkeypatch, name, original, replacement):
    """Rebind ``name`` at every module that imported it."""
    for mod in (cli, linalg, orbits, parabolic, zeta):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def test_a_broken_formula_gives_failures(monkeypatch):
    good = orbits.orbit_dimension

    def broken(t):
        inv = good(t)
        return dataclasses.replace(inv, half_dim=inv.half_dim + 1,
                                   centralizer_dim_F=inv.centralizer_dim_F + 2)

    _break_everywhere(monkeypatch, "orbit_dimension", good, broken)
    assert _fail_ratio(worker.run_pass("local_factors", 1, "tiny")) > 0
    assert _fail_ratio(worker.run_pass("finite_census", 1, "tiny")) > 0

    good_type = orbits.jordan_type_of
    _break_everywhere(monkeypatch, "jordan_type_of", good_type,
                      lambda y: orbits.JordanType((y.n,)))
    assert _fail_ratio(worker.run_pass("induction", 1, "tiny")) > 0


def test_a_wrong_nilpotence_verdict_fails_the_sample(monkeypatch):
    def reject(y):
        raise linalg.NotNilpotent("every matrix rejected")

    monkeypatch.setattr(orbits, "jordan_type_of", reject)
    out = worker.run_pass("finite_census", 1, "tiny")
    sample, = (ph for ph in out["phases"] if ph["phase"] == "sample")
    assert 0 < _fail_ratio({"phases": [sample]}) < 1


def test_exceptions_count_as_failures(monkeypatch):
    def raise_genericity(*args, **kwargs):
        raise GenericityFailure("no certified sample")

    monkeypatch.setattr(parabolic, "induce_orbit_report", raise_genericity)
    monkeypatch.setattr(cli, "verify_porb", raise_genericity)
    out = worker.run_pass("induction", 1, "tiny")
    assert _fail_ratio(out) == 1.0
    porb, = (ph for ph in out["phases"] if ph["phase"] == "porb")
    assert porb["error"].startswith("GenericityFailure")


def test_tracer_patches_every_site_and_counts_exactly():
    def sites():
        return (linalg.mat_mul, orbits.is_nilpotent, cli.verify_porb,
                cli.SUITES["porb"])

    before = sites()
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unpatched_sites() == []
        assert orbits.is_nilpotent is not before[1]
        assert cli.SUITES["porb"] is cli.suite_porb is not before[3]
        assert self_check(tracer) == []
    finally:
        tracer.uninstall()
    assert sites() == before


def test_tail_is_the_highest_percentile_with_ten_cases_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "induction",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
