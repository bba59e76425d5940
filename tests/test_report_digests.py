"""Golden digests: every suite report must stay byte-identical.

Each case runs ``cli.cmd_verify``, ``cli.cmd_induce`` or ``cli.cmd_orbits``
at a fixed configuration and compares the SHA-256 of the report's
canonical JSON (the bytes ``tworb --format json`` prints) with
``report_digests.json``.  The configurations are the acceptance ones of
``scripts/run_verify_all.py``, plus ``census`` at q=3, ``porb`` over F_2,
F_3 and F_16 and over Q(sqrt 3) and Q(sqrt 1/2), ``uX`` and
``centralizer`` over F_16 (e = 2), three ``induce`` runs (over
Q(sqrt 2), over F_3, and one over F_2 that ends in a
GenericityFailure), the ``orbits`` catalog at n = 6 and n = 8, and
``scaling`` at n <= 10.  A change that alters any report,
even a field nobody checks, fails here; re-record only when a report is
meant to change:

    PYTHONPATH=src python tests/test_report_digests.py \
        > tests/report_digests.json
"""

import hashlib
import importlib.util
import json
from functools import partial
from pathlib import Path

import pytest

from tworb.cli import RunConfig, cmd_induce, cmd_orbits, cmd_verify

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "report_digests.json"


def _acceptance_configs() -> dict:
    path = HERE.parent / "scripts" / "run_verify_all.py"
    spec = importlib.util.spec_from_file_location("run_verify_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CONFIGS


F_2 = {"kind": "finite", "p": 2, "e": 1}
F_3 = {"kind": "finite", "p": 3, "e": 1}
F_16 = {"kind": "finite", "p": 2, "e": 2}

CASES = {
    **{suite: partial(cmd_verify, suite, cfg)
       for suite, cfg in _acceptance_configs().items()},
    "census q=3": partial(cmd_verify, "census", RunConfig(n=2, q=3)),
    # many rejected trials, so later trials often fall back from the rows
    # that certified an earlier one to the full system
    "porb F_2": partial(cmd_verify, "porb", RunConfig(
        field=F_2, q=2, n_max=4, trials=20, seed=1)),
    "porb F_3": partial(cmd_verify, "porb", RunConfig(
        field=F_3, n_max=4, trials=20, seed=7)),
    "porb F_16": partial(cmd_verify, "porb", RunConfig(
        field=F_16, q=4, n_max=4, trials=20, seed=1)),
    "porb tau=3": partial(cmd_verify, "porb", RunConfig(
        field={"kind": "rational", "tau": 3}, n_max=5, trials=20, seed=1)),
    # a non-integral radicand: the rank systems hold Fractions
    "porb tau=1/2": partial(cmd_verify, "porb", RunConfig(
        field={"kind": "rational", "tau": "1/2"}, n_max=4, trials=20,
        seed=1)),
    "uX F_16": partial(cmd_verify, "uX", RunConfig(field=F_16, q=4, n_max=5)),
    "centralizer F_16": partial(cmd_verify, "centralizer", RunConfig(
        field=F_16, q=4, n_max=5)),
    "induce 3,2,1": partial(cmd_induce, "3,2,1", None, RunConfig(seed=1)),
    "induce 2,2 F_3": partial(cmd_induce, "2,2", "2;1,1", RunConfig(
        field=F_3, q=3, seed=1)),
    # a single trial that falls short: ends in a GenericityFailure report
    "induce 2,2 F_2 failure": partial(cmd_induce, "2,2", "1,1;2", RunConfig(
        field=F_2, q=2, seed=2, trials=1)),
    # the orbit catalog and scaling beyond the acceptance n <= 6
    "orbits n=6": partial(cmd_orbits, RunConfig(n=6)),
    "orbits n=8": partial(cmd_orbits, RunConfig(n=8)),
    "scaling n_max=10": partial(cmd_verify, "scaling", RunConfig(n_max=10)),
}


def report_digest(run) -> str:
    _, report = run()
    data = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(data.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest_is_unchanged(name):
    golden = json.loads(GOLDEN.read_text())
    assert report_digest(CASES[name]) == golden[name]


def test_every_golden_digest_has_a_case():
    assert set(json.loads(GOLDEN.read_text())) == set(CASES)


if __name__ == "__main__":
    print(json.dumps({name: report_digest(CASES[name])
                      for name in sorted(CASES)}, indent=2, sort_keys=True))
