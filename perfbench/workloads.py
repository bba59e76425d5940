"""The three benchmark workloads of tworb, as phases of checked cases.

A workload is a fixed list of phases.  A phase either runs one tworb
verification suite (through the same ``tworb.cli`` functions the
``tworb verify`` command runs) or drives a library entry point case by
case.  Every phase returns its verdict rows ``(label, ok)`` and a
JSON-able report whose canonical bytes are digested, so a later change
can show that its output is byte-identical to its parent's.

Why these three (see README.md for the full rationale):

* ``induction``: the rational ``Fraction`` path.  ``porb`` is many small
  systems dominated by ``jordan_type_of``/``is_nilpotent``; Richardson
  induction at n = 6 is few large bracket systems where ``rank_F`` weighs
  more.  ``ratfun`` is never called.
* ``local_factors``: the ``ratfun``/``zeta`` path, dominated by sympy.
  ``fields`` and ``linalg`` are never called.  Independent of the seed.
* ``finite_census``: the finite-field path: exhaustive enumeration,
  rank mod p, the e > 1 model, and the ``is_nilpotent`` reject path on
  random samples.  ``ratfun`` is never called.

Seeds reach only the seeded parts (``porb`` trials, Richardson draws and
the random sample); the exhaustive suites and ``local_factors`` run at
seed 0 so that their reports do not change with the workload seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from operator import xor
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from tworb import cli, fields, linalg, orbits, parabolic  # noqa: E402

RATIONAL = {"kind": "rational", "tau": 2}
F3 = {"kind": "finite", "p": 3, "e": 1}
F4 = {"kind": "finite", "p": 2, "e": 1}    # E = F_4 over F = F_2
F16 = {"kind": "finite", "p": 2, "e": 2}   # E = F_16 over F = F_4

# Problem sizes.  "full" is the benchmark; "tiny" exists for the smoke
# tests in test_perfbench.py and is never timed.
SIZES = {
    "full": {"porb_n": 4, "porb_trials": 20, "richardson_n": 6,
             "scaling_n": 6, "catalog_n": 6, "census_q": (3, 2),
             "cent_f3_n": 6, "cent_f16_n": 5, "dimhy_n": 12,
             "samples": 3000},
    "tiny": {"porb_n": 2, "porb_trials": 3, "richardson_n": 3,
             "scaling_n": 2, "catalog_n": 2, "census_q": (2,),
             "cent_f3_n": 2, "cent_f16_n": 2, "dimhy_n": 2,
             "samples": 400},
}


def sha256_json(obj) -> str:
    """Digest of the canonical JSON bytes, as ``tworb`` emits them."""
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(data.encode()).hexdigest()


def canonical_bytes(obj) -> int:
    return len(json.dumps(obj, sort_keys=True, separators=(",", ":"))) + 1


# ---------------------------------------------------------------------------
# case recording

PROBE_EVERY_S = 1.0


class Recorder:
    """Case boundaries of one pass, on a clock that stops while the speed
    probe runs.

    A case ends when its verdict-producing call returns (``mark``); the
    time since the previous boundary is charged to it, so every second of
    a phase belongs to some case.  ``on_case`` lets the tracer switch its
    per-case counters at the same boundary.

    Other tenants of the machine change its speed within seconds.  At a
    case boundary at least PROBE_EVERY_S after the last probe, ``probe`` (a
    fixed kernel returning its CPU seconds) runs; ``probes`` holds
    (pass-clock time, probe seconds) pairs.  The probe and the benchmark's
    own checks run ``untimed``; ``on_pause`` is told how long each such
    pause took, so the tracer can leave it out of every layer.
    """

    def __init__(self, probe: Callable[[], float],
                 on_case: Callable[[], None] | None = None,
                 on_pause: Callable[[float], None] | None = None):
        self.probe = probe
        self.on_case = on_case
        self.on_pause = on_pause
        self.marks: list[float] = []
        self.probes: list[tuple[float, float]] = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def untimed(self):
        """Stop the pass clock for the duration of the block."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - t0
            self._paused += took
            if self.on_pause is not None:
                self.on_pause(took)

    def probe_speed(self) -> None:
        with self.untimed():
            sample = self.probe()
        self.probes.append((self.now(), sample))

    def mark(self) -> None:
        self.marks.append(self.now())
        if self.on_case is not None:
            self.on_case()
        if self.probes and self.now() - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probe_speed()


@dataclass
class Phase:
    name: str
    suite: str | None   # the cli suite it runs, or None if driven here
    run: Callable       # (recorder, seed) -> (rows, report)
    markers: tuple = ()  # cli-bound names whose return ends a case


def _marked(fn, rec: Recorder):
    def marked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            rec.mark()
    return marked


def run_phase(phase: Phase, rec: Recorder, seed: int) -> dict:
    """Run one phase; never raises.  Returns rows with latencies."""
    rec.marks = []
    saved = {name: getattr(cli, name) for name in phase.markers}
    for name, fn in saved.items():
        setattr(cli, name, _marked(fn, rec))
    start = rec.now()
    error = None
    rows, report = [], None
    try:
        rows, report = phase.run(rec, seed)
    except Exception as exc:  # a raising suite fails its cases, not the run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        end = rec.now()
        for name, fn in saved.items():
            setattr(cli, name, fn)
    bounds = [start] + rec.marks
    lat = [b - a for a, b in zip(bounds, bounds[1:])]
    tail = end - bounds[-1]
    if error is not None:
        # the suite produced no report, so no verdict of it can be checked
        rows = [(f"case {i}", False) for i in range(len(lat) + 1)]
        lat.append(tail)
    elif len(rows) == len(lat) + 1:
        lat.append(tail)          # a final row with no marker call
    elif len(rows) == len(lat) and lat:
        lat[-1] += tail
    else:
        error = (f"{len(rows)} report rows but {len(lat)} case boundaries")
        rows = [(label, False) for label, _ in rows]
        lat = [(end - start) / max(len(rows), 1)] * len(rows)
    ends = list(itertools.accumulate(lat, initial=start))[1:]
    return {"phase": phase.name, "suite": phase.suite,
            "start": start, "end": end,
            "rows": [[label, bool(ok), t, e]
                     for (label, ok), t, e in zip(rows, lat, ends)],
            "digest": sha256_json(report) if report is not None else None,
            "report_bytes": (canonical_bytes(report)
                             if report is not None and phase.suite else 0),
            "error": error}


# ---------------------------------------------------------------------------
# phases that run a cli suite


def _verify(suite: str, cfg_of: Callable[[int], cli.RunConfig]):
    def run(rec, seed):
        code, report = cli.cmd_verify(suite, cfg_of(seed))
        rows = [(c["case"], c["ok"] is True) for c in report["cases"]]
        if code != (0 if all(ok for _, ok in rows) else 1):
            rows = [(label, False) for label, _ in rows]
        return rows, report
    return run


def _catalog(n: int):
    """``tworb orbits`` catalog; each row is checked against its type."""
    code, report = cli.cmd_orbits(cli.RunConfig(n=n))
    types = [t.to_json() for t in orbits.enumerate_orbits(n)]
    rows = []
    for i, row in enumerate(report["rows"]):
        parts = row["type"]
        d = {j: parts.count(j) for j in set(parts)}
        # the s-part of the homogeneity identity, from the emitted table
        c_from_table = 2 * sum(d[en["j"]] * en["s_coeff"]
                               for en in row["table"])
        ok = (code == 0 and i < len(types) and parts == types[i]
              and row["dim_orbit"] == 2 * row["half_dim"]
              and row["dim_orbit"] + row["centralizer_dim"] == 2 * n * n
              and row["c"] == c_from_table
              and len(row["series"]) == cli.RunConfig().series_order + 1)
        rows.append((f"type={tuple(parts)}", ok))
    if len(rows) != len(types):
        rows.append(("row count", False))
    return rows, report


# ---------------------------------------------------------------------------
# phases driven case by case


def compositions(n: int):
    """Compositions of n, in a fixed order."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        comp = [1]
        for cut in cuts:
            if cut:
                comp.append(1)
            else:
                comp[-1] += 1
        yield tuple(comp)


def _richardson(rec, seed, n_max):
    """Induce the zero orbit of every Levi of GL_n, n <= 6, over Q(sqrt 2);
    the certified type must be the dual of the sorted composition."""
    model = fields.make_extension(RATIONAL)
    cfg = cli.RunConfig(seed=seed)
    rows, records = [], []
    for n in range(1, n_max + 1):
        for comp in compositions(n):
            label = f"comp={comp}"
            try:
                shape = parabolic.standard_parabolic(comp)
                zero = [orbits.JordanType((1,) * s) for s in comp]
                got = parabolic.induce_orbit_report(
                    shape, zero, model, seed=cfg.case_seed("richardson " + label))
                ok = got.induced_type == parabolic.richardson_dual(comp)
                records.append({"case": label, "ok": ok,
                                "induced_type": got.induced_type.to_json(),
                                "trials_used": got.trials_used,
                                "rejected": got.rejected})
            except Exception as exc:  # GenericityFailure and any defect
                ok = False
                records.append({"case": label, "ok": False,
                                "error": f"{type(exc).__name__}: {exc}"})
            rows.append((label, ok))
            rec.mark()
    return rows, {"phase": "richardson", "seed": seed, "cases": records}


# F_4 = F_2[x]/(x^2 + x + 1), written out here so that the sample phase
# can check tworb's nilpotence verdicts without tworb: element i is
# (i & 1) + (i >> 1) x, the order ``element_from_index`` enumerates.
def _f4_mul(a: int, b: int) -> int:
    prod = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
    return prod ^ 0b111 if prod & 0b100 else prod  # x^2 = x + 1


F4_MUL = [[_f4_mul(a, b) for b in range(4)] for a in range(4)]
F4_SIGMA = [F4_MUL[a][a] for a in range(4)]  # the involution a -> a^2


def f4_twisted_nilpotent(idx, n: int = 3) -> bool:
    """Whether the 2n-th twisted power Y sigma(Y) Y ... of the n x n matrix
    over F_4 with entry indices ``idx`` (row by row) vanishes."""
    y = [idx[n * r:n * r + n] for r in range(n)]
    acc = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(2 * n):
        s = [[F4_SIGMA[v] for v in row] for row in acc]
        acc = [[reduce(xor, (F4_MUL[y[r][k]][s[k][c]] for k in range(n)))
                for c in range(n)] for r in range(n)]
    return not any(any(row) for row in acc)


def _sample(rec, seed, count):
    """Random 3x3 matrices over F_4; nilpotent ones are classified and their
    centralizer dimension checked against the formula.  Whether a matrix is
    nilpotent is checked, untimed, by ``f4_twisted_nilpotent``."""
    model = fields.make_extension(F4)
    card = model.element_count()
    rng = random.Random(cli.RunConfig(seed=seed).case_seed("sample"))
    rows, records = [], []
    for i in range(count):
        idx = [rng.randrange(card) for _ in range(9)]
        label = f"sample {i}"
        try:
            y = linalg.TwistedEndo(model, 3, tuple(
                tuple(model.element_from_index(idx[3 * r + c])
                      for c in range(3)) for r in range(3)))
            try:
                t = orbits.jordan_type_of(y)
            except linalg.NotNilpotent:
                ok = True
                records.append([idx, None])
            else:
                oracle = orbits.centralizer_dim_oracle(y)
                ok = oracle == orbits.orbit_dimension(t).centralizer_dim_F
                records.append([idx, t.to_json(), oracle])
            with rec.untimed():
                ok = ok and f4_twisted_nilpotent(idx) == (records[-1][1]
                                                          is not None)
        except Exception as exc:
            ok = False
            records.append([idx, f"{type(exc).__name__}: {exc}"])
        rows.append((label, ok))
        rec.mark()
    return rows, {"phase": "sample", "seed": seed, "cases": records}


# ---------------------------------------------------------------------------
# the workloads

def phases(workload: str, z: dict) -> list[Phase]:
    """The phases of a workload at the sizes ``z`` (a value of SIZES)."""
    if workload == "induction":
        return [
            Phase("porb", "porb", _verify("porb", lambda seed: cli.RunConfig(
                n_max=z["porb_n"], trials=z["porb_trials"], seed=seed)),
                ("verify_porb",)),
            Phase("richardson", None, lambda rec, seed: _richardson(
                rec, seed, z["richardson_n"])),
        ]
    if workload == "local_factors":
        return [
            Phase("scaling", "scaling", _verify("scaling", lambda seed:
                  cli.RunConfig(n_max=z["scaling_n"])),
                  ("scaling_exponent_check",)),
            Phase("igusa", "igusa", _verify("igusa", lambda seed:
                  cli.RunConfig(series_order=3)), ("igusa_shell_measures",)),
            Phase("orbits", "orbits", lambda rec, seed: _catalog(
                z["catalog_n"]), ("local_zeta_model",)),
        ]
    if workload == "finite_census":
        return [
            *[Phase(f"census_q{q}", "census", _verify(
                "census", lambda seed, q=q: cli.RunConfig(n=2, q=q)),
                ("stabilizer_order",)) for q in z["census_q"]],
            Phase("centralizer_F3", "centralizer", _verify(
                "centralizer", lambda seed: cli.RunConfig(
                    field=F3, n_max=z["cent_f3_n"])),
                ("centralizer_dim_oracle",)),
            Phase("centralizer_F16", "centralizer", _verify(
                "centralizer", lambda seed: cli.RunConfig(
                    field=F16, n_max=z["cent_f16_n"])),
                ("centralizer_dim_oracle",)),
            Phase("dimHY", "dimHY", _verify("dimHY", lambda seed:
                  cli.RunConfig(q=2, n_max=z["dimhy_n"])),
                  ("check_dimHY", "flag_fixed_count")),
            Phase("sample", None, lambda rec, seed: _sample(
                rec, seed, z["samples"])),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# field models each workload builds during set-up
FIELDS = {
    "induction": [RATIONAL],
    "local_factors": [],
    "finite_census": [F3, F4, F16],
}


def setup(workload: str) -> list:
    """Everything before the first case can run: the imports above, plus
    building the workload's field models."""
    return [fields.make_extension(spec) for spec in FIELDS[workload]]
