"""CLI contract: determinism, exit codes, formats, report schemas."""

import json

import pytest

from tworb.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_orbits_n2(capsys):
    code, out = run_cli(capsys, "orbits", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "tworb/1"
    rows = report["rows"]
    assert [r["type"] for r in rows] == [[2], [1, 1]]
    assert sorted(r["dim_orbit"] for r in rows) == [0, 4]


def test_orbits_n0_single_row(capsys):
    code, out = run_cli(capsys, "orbits", "--n", "0")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1 and rows[0]["type"] == []


def test_orbits_n4_five_rows(capsys):
    code, out = run_cli(capsys, "orbits", "--n", "4")
    rows = json.loads(out)["rows"]
    assert len(rows) == 5  # p(4)


def test_orbits_row_fields(capsys):
    _, out = run_cli(capsys, "orbits", "--n", "3")
    report = json.loads(out)
    assert "local_factor" in report["note"] or report["note"]
    row = report["rows"][0]  # type (3)
    assert row["type"] == [3]
    assert set(row) >= {"dim_orbit", "half_dim", "c", "centralizer_dim",
                        "springer_dim", "table", "local_factor", "series"}
    assert row["table"] == [{"i": 1, "j": 3, "e": 1, "s_coeff": 2},
                            {"i": 2, "j": 3, "e": 1, "s_coeff": 1}]
    assert set(row["local_factor"]) == {"num", "den"}
    assert len(row["series"]) == 4  # default series order 3


def test_json_output_is_byte_identical_across_reruns(capsys):
    _, first = run_cli(capsys, "verify", "porb", "--n-max", "2",
                       "--seed", "42")
    _, second = run_cli(capsys, "verify", "porb", "--n-max", "2",
                        "--seed", "42")
    assert first == second
    _, third = run_cli(capsys, "verify", "porb", "--n-max", "2",
                       "--seed", "43")
    assert json.loads(third)["config"]["seed"] == 43


def test_verify_identity_passes(capsys):
    code, out = run_cli(capsys, "verify", "identity", "--n-max", "12")
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0 and report["passed"] > 0


def test_verify_centralizer_small(capsys):
    code, out = run_cli(capsys, "verify", "centralizer", "--n-max", "3",
                        "--field", "rational", "--tau", "2")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_verify_census_q2(capsys):
    code, out = run_cli(capsys, "verify", "census", "--n", "2", "--q", "2")
    assert code == 0
    report = json.loads(out)
    bucket = [c for c in report["cases"] if c["case"] == "bucket-structure"]
    assert bucket and bucket[0]["ok"]


def test_verify_uX_finite(capsys):
    code, out = run_cli(capsys, "verify", "uX", "--n-max", "3", "--field",
                        "finite", "--q", "2")
    assert code == 0


def test_verify_scaling_small(capsys):
    code, out = run_cli(capsys, "verify", "scaling", "--n-max", "3")
    assert code == 0


def test_verify_igusa(capsys):
    code, out = run_cli(capsys, "verify", "igusa")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_verify_dimhy(capsys):
    code, out = run_cli(capsys, "verify", "dimHY", "--n-max", "4")
    assert code == 0


def test_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_bad_q_exits_2(capsys):
    assert main(["verify", "census", "--q", "6"]) == 2


@pytest.mark.parametrize("q", ["1", "12"])
@pytest.mark.parametrize("field", ["rational", "finite"])
def test_q_not_a_prime_power_exits_2(capsys, q, field):
    # census reads --q as its field with the configuration, whatever
    # --field says, so both give the same error
    assert main(["verify", "census", "--field", field, "--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: q={q} is not a prime power\n"


def test_q8_is_the_field_with_8_elements(capsys):
    code, out = run_cli(capsys, "verify", "census", "--n", "1", "--field",
                        "finite", "--q", "8")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["field"] == {"kind": "finite", "p": 2, "e": 3}
    # GL_1(E) for E = F_64, the quadratic extension of F_8
    assert [c["group_order"] for c in report["cases"]] == [63]


def test_census_and_dimhy_report_the_field_they_count_over(capsys):
    # without --field finite, the report names F_q from --q, not Q(sqrt 2)
    code, out = run_cli(capsys, "verify", "census", "--n", "1", "--q", "8")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["field"] == {"kind": "finite", "p": 2, "e": 3}
    assert [c["group_order"] for c in report["cases"]] == [63]
    code, out = run_cli(capsys, "verify", "dimHY", "--n-max", "2", "--q", "3")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["field"] == {"kind": "finite", "p": 3, "e": 1}
    assert all(c["case"].endswith("q=3") for c in report["cases"]
               if c["case"].startswith("flag"))


def test_bad_budget_exits_2(capsys):
    assert main(["orbits", "--n", "2", "--trials", "0"]) == 2


def test_census_over_budget_exits_2(capsys):
    # 3^8 = 6561 matrices in gl_2(F_9) exceed a budget of 10
    assert main(["verify", "census", "--n", "2", "--q", "3",
                 "--budget", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("configuration error: 6561 matrices exceed "
                            "budget 10; pass sample_size for seeded "
                            "sampling\n")


def test_square_tau_exits_2(capsys):
    assert main(["verify", "porb", "--n-max", "1", "--tau", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: tau=4 is a square in Q\n"


def test_a_rational_tau_reproduces_its_pinned_report(capsys):
    # the bytes of the pinned porb tau=1/2 report, made through RunConfig
    import hashlib
    from pathlib import Path

    code, out = run_cli(capsys, "verify", "porb", "--tau", "1/2",
                        "--n-max", "4", "--trials", "20", "--seed", "1")
    assert code == 0
    golden = json.loads((Path(__file__).resolve().parent
                         / "report_digests.json").read_text())
    assert hashlib.sha256(out.encode()).hexdigest() == golden["porb tau=1/2"]
    assert json.loads(out)["config"]["field"] == {"kind": "rational",
                                                  "tau": "1/2"}
    # an integral tau stays an int, so the config bytes of --tau 2 stay
    code, out = run_cli(capsys, "verify", "porb", "--tau", "2",
                        "--n-max", "1")
    assert json.loads(out)["config"]["field"] == {"kind": "rational",
                                                  "tau": 2}


@pytest.mark.parametrize("tau, error", [
    ("abc", "'abc'"),  # Fraction's own message, which names the text
    ("1/4", "tau=1/4 is a square in Q")], ids=["not-rational", "square"])
def test_a_tau_that_names_no_field_exits_2(capsys, tau, error):
    assert main(["verify", "porb", "--n-max", "1", "--tau", tau]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert error in captured.err and captured.err.count("\n") == 1


FIELD_FREE_ARGV = [
    ["orbits", "--n", "1"],
    ["verify", "identity", "--n-max", "1"],
    ["verify", "igusa", "--series-order", "1"],
    ["verify", "scaling", "--n-max", "1"],
]


@pytest.mark.parametrize("argv", FIELD_FREE_ARGV)
def test_field_free_commands_ignore_a_square_tau(capsys, argv):
    # these compute over no field, so the radicand is never checked; the
    # report still echoes the flags in config.field
    code, out = run_cli(capsys, *argv, "--tau", "4")
    assert code == 0
    assert json.loads(out)["config"]["field"] == {"kind": "rational", "tau": 4}


@pytest.mark.parametrize("argv", FIELD_FREE_ARGV)
def test_field_free_commands_ignore_a_q_that_is_no_prime_power(capsys, argv):
    # q is echoed as given when it names no field, and as p and e otherwise
    code, out = run_cli(capsys, *argv, "--field", "finite", "--q", "12")
    assert code == 0
    assert json.loads(out)["config"]["field"] == {"kind": "finite", "q": 12}
    code, out = run_cli(capsys, *argv, "--field", "finite", "--q", "8")
    assert code == 0
    assert json.loads(out)["config"]["field"] == {"kind": "finite", "p": 2,
                                                  "e": 3}


@pytest.mark.parametrize("argv", [
    ["verify", "porb", "--n-max", "1"],
    ["verify", "centralizer", "--n-max", "1"],
    ["verify", "uX", "--n-max", "1"],
    ["induce", "--levi", "1,1"],
])
def test_commands_over_a_field_reject_a_q_that_is_no_prime_power(capsys,
                                                                  argv):
    assert main([*argv, "--field", "finite", "--q", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: q=12 is not a prime power\n"


def test_induce_borel(capsys):
    code, out = run_cli(capsys, "induce", "--levi", "1,1", "--types", "1;1")
    assert code == 0
    report = json.loads(out)
    assert report["induced_type"] == [2] and report["ok"]


def test_induce_p_equals_h(capsys):
    code, out = run_cli(capsys, "induce", "--levi", "3", "--types", "2,1")
    assert code == 0
    assert json.loads(out)["induced_type"] == [2, 1]


def test_induce_22(capsys):
    code, out = run_cli(capsys, "induce", "--levi", "2,2",
                        "--types", "1,1;1,1")
    assert code == 0
    assert json.loads(out)["induced_type"] == [2, 2]


def test_induce_default_types_are_zero_orbits(capsys):
    code, out = run_cli(capsys, "induce", "--levi", "1,1,1")
    assert code == 0
    report = json.loads(out)
    assert report["types"] == [[1], [1], [1]]
    assert report["induced_type"] == [3]


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("TWORB_SEED", "777")
    _, out = run_cli(capsys, "orbits", "--n", "1")
    assert json.loads(out)["config"]["seed"] == 777
    monkeypatch.delenv("TWORB_SEED")
    _, out = run_cli(capsys, "orbits", "--n", "1")
    assert json.loads(out)["config"]["seed"] == 0


def test_csv_format(capsys):
    code, out = run_cli(capsys, "orbits", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + 2 rows
    assert "type" in lines[0]


def test_pretty_format(capsys):
    code, out = run_cli(capsys, "verify", "igusa", "--format", "pretty")
    assert code == 0
    assert "PASS" in out


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "tworb", "orbits", "--n", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == "tworb/1"


def test_import_does_not_load_sympy():
    import os
    import subprocess
    import sys

    import tworb

    src = os.path.dirname(os.path.dirname(os.path.abspath(tworb.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tworb; print('sympy' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
