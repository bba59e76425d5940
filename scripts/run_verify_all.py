#!/usr/bin/env python3
"""Run every verification suite at its acceptance-level configuration.

Prints one line per suite and exits nonzero if anything fails.  This is
the batch equivalent of `pytest tests/test_acceptance.py`, driven through
the CLI layer so the reports are the machine-readable ones.
"""

import sys
import time

from tworb.cli import SUITES, RunConfig, cmd_verify

CONFIGS = {
    "centralizer": RunConfig(n_max=6),
    "identity": RunConfig(n_max=12),
    "uX": RunConfig(n_max=5),
    "dimHY": RunConfig(n_max=12, q=2),
    "porb": RunConfig(n_max=4, trials=20, seed=1),
    "igusa": RunConfig(series_order=3),
    "scaling": RunConfig(n_max=6),
    "census": RunConfig(n=2, q=2),
}


def main() -> int:
    failures = 0
    for suite in SUITES:
        cfg = CONFIGS.get(suite, RunConfig())
        started = time.perf_counter()
        code, report = cmd_verify(suite, cfg)
        status = "PASS" if code == 0 else "FAIL"
        print(f"{status}  {suite:12s}  {report['passed']:4d} passed  "
              f"{report['failed']:2d} failed  "
              f"[{time.perf_counter() - started:6.1f}s]")
        failures += report["failed"]
    # the census suite above runs q = 2; repeat at q = 3 per the acceptance
    started = time.perf_counter()
    code, report = cmd_verify("census", RunConfig(n=2, q=3))
    print(f"{'PASS' if code == 0 else 'FAIL'}  census q=3    "
          f"{report['passed']:4d} passed  {report['failed']:2d} failed  "
          f"[{time.perf_counter() - started:6.1f}s]")
    failures += report["failed"]
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
