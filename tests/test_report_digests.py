"""Golden digests: every suite report must stay byte-identical.

Each case runs ``cli.cmd_verify`` at a fixed configuration and compares
the SHA-256 of the report's canonical JSON (the bytes ``tworb --format
json`` prints) with ``report_digests.json``.  The configurations are the
acceptance ones of ``scripts/run_verify_all.py``, plus ``census`` at q=3
and ``porb`` over F_3.  A change that alters any report, even a field
nobody checks, fails here; re-record only when a report is meant to
change:

    PYTHONPATH=src python tests/test_report_digests.py \
        > tests/report_digests.json
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from tworb.cli import RunConfig, cmd_verify

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "report_digests.json"


def _acceptance_configs() -> dict:
    path = HERE.parent / "scripts" / "run_verify_all.py"
    spec = importlib.util.spec_from_file_location("run_verify_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CONFIGS


CASES = {
    **{suite: (suite, cfg) for suite, cfg in _acceptance_configs().items()},
    "census q=3": ("census", RunConfig(n=2, q=3)),
    "porb F_3": ("porb", RunConfig(field={"kind": "finite", "p": 3, "e": 1},
                                   n_max=4, trials=20, seed=7)),
}


def report_digest(suite: str, cfg: RunConfig) -> str:
    _, report = cmd_verify(suite, cfg)
    data = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(data.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest_is_unchanged(name):
    golden = json.loads(GOLDEN.read_text())
    assert report_digest(*CASES[name]) == golden[name]


def test_every_golden_digest_has_a_case():
    assert set(json.loads(GOLDEN.read_text())) == set(CASES)


if __name__ == "__main__":
    print(json.dumps({name: report_digest(*CASES[name])
                      for name in sorted(CASES)}, indent=2, sort_keys=True))
