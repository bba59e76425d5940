#!/usr/bin/env python3
"""The tworb benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs set-up probes, then whole passes of workload W, each in a fresh
worker process (worker.py), until the next pass would end after S
seconds; at least one pass always runs.  With ``--trace 1`` untraced and
traced passes alternate, at least one of each.  Every verdict is checked
and every report digest must agree between passes.

Prints a detail line (environment stamp, digests, tail percentile, case
counts, every raw sample) and, as the last line, the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("induction", "local_factors", "finite_census")
SETUP_PROBES = 3       # extra set-up-only processes per run
WORKER_TIMEOUT_S = 150
# worker.speed_probe() on a quiet 2-vCPU machine with Python 3.11.7; every
# reported time is taken to this speed (see README.md, "Machine speed")
PROBE_REFERENCE_S = 0.017

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("case_ms.p50", "ms"),
              ("case_ms.tail", "ms"), ("peak_rss_mb", "MB")]

# span name behind a per-layer metric prefix, where they differ
SPAN = {"linalg.rank_F": "linalg.FLinearSystem.rank_F",
        "ratfun.construct": "ratfun.BivariateRationalFunction.__init__",
        "ratfun.mul": "ratfun.BivariateRationalFunction.mul",
        "ratfun.div": "ratfun.BivariateRationalFunction.div",
        "ratfun.eq": "ratfun.BivariateRationalFunction.__eq__",
        "ratfun.series_expand":
            "ratfun.BivariateRationalFunction.series_expand"}
SUITES = ("porb", "scaling", "igusa", "orbits", "census", "centralizer",
          "dimHY")
PER_LAYER = (
    [(f"fields.{op}.calls", "count") for op in ("mul", "add", "inv", "sigma")]
    + [("fields.self_s", "s"),
       ("linalg.mat_mul.calls", "count"), ("linalg.mat_mul.self_s", "s"),
       ("linalg.twisted_power.calls", "count"),
       ("linalg.twisted_power.factors", "count"),
       ("linalg.is_nilpotent.calls", "count"),
       ("linalg.is_nilpotent.self_s", "s"),
       ("linalg.mat_rank.calls", "count"), ("linalg.mat_rank.self_s", "s"),
       ("linalg.bracket_system.calls", "count"),
       ("linalg.bracket_system.self_s", "s"),
       ("linalg.bracket_system.cells", "count"),
       ("linalg.rank_F.calls", "count"), ("linalg.rank_F.self_s", "s"),
       ("linalg.rank_F.cells", "count"), ("linalg.self_s", "s"),
       ("orbits.jordan_type_of.calls", "count"),
       ("orbits.jordan_type_of.self_s", "s"),
       ("orbits.jordan_type_of.nilpotent_ratio", "ratio"),
       ("orbits.stabilizer_order.calls", "count"),
       ("orbits.stabilizer_order.self_s", "s"),
       ("orbits.stabilizer_order.matrices", "count"),
       ("orbits.centralizer_dim_oracle.calls", "count"),
       ("orbits.centralizer_dim_oracle.self_s", "s"),
       ("orbits.self_s", "s"),
       ("parabolic.verify_porb.calls", "count"),
       ("parabolic.verify_porb.self_s", "s"),
       ("parabolic.porb.certified_ratio", "ratio"),
       ("parabolic.induce_orbit_report.calls", "count"),
       ("parabolic.induce_orbit_report.self_s", "s"),
       ("parabolic.induce.accept_ratio", "ratio"),
       ("parabolic.flag_fixed_count.self_s", "s"),
       ("parabolic.self_s", "s"),
       ("ratfun.construct.calls", "count"), ("ratfun.mul.calls", "count"),
       ("ratfun.div.calls", "count"), ("ratfun.eq.calls", "count"),
       ("ratfun.series_expand.calls", "count"), ("ratfun.self_s", "s"),
       ("zeta.scaling_exponent_check.calls", "count"),
       ("zeta.scaling_exponent_check.self_s", "s"),
       ("zeta.local_zeta_factors.calls", "count"),
       ("zeta.igusa_shell_measures.self_s", "s"), ("zeta.self_s", "s")]
    + [(f"cli.suite.{s}.wall_s", "s") for s in SUITES]
    + [("bench.richardson.wall_s", "s"), ("bench.sample.wall_s", "s"),
       ("cli.report_bytes", "bytes"), ("cli.self_s", "s"),
       ("trace_overhead", "ratio"), ("fail_ratio", "ratio")])


# ---------------------------------------------------------------------------
# environment stamp


def _git(*args) -> str | None:
    try:
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def environment_stamp() -> dict:
    """What a comparison must hold fixed, and what identifies the code."""
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = None
    sha = dirty = None
    if (ROOT / ".git").exists():  # a plain checkout has no history
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tworb").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "sympy": sympy_version,
            "nproc": os.cpu_count(), "git_sha": sha, "git_dirty": dirty,
            "src_sha256": src.hexdigest()}


# comparable only when these agree
STAMP_KEYS = ("python", "sympy", "nproc")


# ---------------------------------------------------------------------------
# worker processes


def spawn(args: list[str]) -> tuple[float, float, list[str] | None, str]:
    """Start a worker; return (seconds to ready, seconds to exit, the lines
    it printed after ``ready`` or None if it failed, its stderr)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, err = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    done = time.perf_counter() - start
    ok = first.strip() == "ready" and proc.returncode == 0
    return ready, done, rest.splitlines() if ok else None, err


# ---------------------------------------------------------------------------
# aggregation


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten values above it: (value, pct)."""
    xs = sorted(values)
    i = max(0, len(xs) - 11)
    return xs[i], 100.0 * (i + 1) / len(xs)


def reference_clock(p: dict):
    """Map pass-clock times of pass p to seconds at the reference speed.

    Between two probes the pass ran at the speed the later probe measured,
    averaged with its two neighbours against the probe's own noise: a
    second there counts PROBE_REFERENCE_S / probe seconds.
    """
    times = [t for t, _ in p["probes"]]
    raw = [PROBE_REFERENCE_S / probe for _, probe in p["probes"]]
    rates = [statistics.fmean(raw[max(i - 1, 0):i + 2])
             for i in range(len(raw))]
    acc = [0.0]
    for i in range(1, len(times)):
        acc.append(acc[-1] + (times[i] - times[i - 1]) * rates[i])

    def at(t: float) -> float:
        i = min(max(bisect.bisect_left(times, t), 1), len(times) - 1)
        return acc[i - 1] + (t - times[i - 1]) * rates[i]
    return at


def wall(p: dict) -> float:
    clock = reference_clock(p)
    return clock(p["end"]) - clock(p["start"])


def phase_wall(p: dict, keep) -> float:
    """Reference-speed seconds of the phases of p for which keep(phase)."""
    clock = reference_clock(p)
    return sum(clock(ph["end"]) - clock(ph["start"])
               for ph in p["phases"] if keep(ph))


def speed(p: dict) -> float:
    """Mean factor that takes the times of pass p to the reference speed."""
    return wall(p) / (p["end"] - p["start"])


def case_latencies(passes: list[dict]) -> list[float]:
    """Median latency of each case over the passes (cases line up, since
    every pass of a seed runs the same cases)."""
    per_case = []
    for p in passes:
        clock = reference_clock(p)
        per_case.append([clock(end) - clock(end - lat) for ph in p["phases"]
                         for _, _, lat, end in ph["rows"]])
    return [statistics.median(ts) for ts in zip(*per_case)]


def digests(p: dict) -> dict:
    rows = [[ph["phase"], r[0], r[1]] for ph in p["phases"] for r in ph["rows"]]
    out = {ph["phase"]: ph["digest"] for ph in p["phases"]}
    out["verdicts"] = hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    return out


def _med(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: list[dict], untraced: list[dict],
                  fail_ratio: float) -> dict:
    """Per-layer metrics: counts and self times from the traced passes,
    suite wall times from the untraced ones.  Times are at reference speed."""
    def from_trace(get, timed=False):
        return _med([get(p["trace"]) * (speed(p) if timed else 1)
                     for p in traced])

    def func(name, key):
        name = SPAN.get(name, name)
        return from_trace(lambda t: t["funcs"].get(name, {}).get(key, 0),
                          timed=key == "self_s")

    def extra(name, key):
        return from_trace(lambda t: t["extra"].get(name, {}).get(key, 0))

    def ratio(name, num, den):
        def get(t):
            ex = t["extra"].get(name, {})
            d = ex.get(den, 0) if den else t["funcs"].get(name, {}).get(
                "calls", 0)
            return ex.get(num, 0) / d if d else 0.0
        return from_trace(get)

    m = {}
    for metric, _unit in PER_LAYER:
        prefix, _, key = metric.rpartition(".")
        if metric.startswith("fields.") and key == "calls":
            m[metric] = from_trace(lambda t, op=prefix[7:]: t["ops"][op])
        elif prefix in ("fields", "linalg", "orbits", "parabolic", "ratfun",
                        "zeta", "cli") and key == "self_s":
            m[metric] = from_trace(lambda t, k=prefix: t["layer_self_s"][k],
                                   timed=True)
        elif key in ("calls", "self_s"):
            m[metric] = func(prefix, key)
        elif key in ("factors", "cells", "matrices"):
            m[metric] = extra(SPAN.get(prefix, prefix), key)
    m["orbits.jordan_type_of.nilpotent_ratio"] = ratio(
        "orbits.jordan_type_of", "returned", None)
    m["parabolic.porb.certified_ratio"] = ratio(
        "parabolic.verify_porb", "certified", "trials")
    m["parabolic.induce.accept_ratio"] = ratio(
        "parabolic.induce_orbit_report", "accepted", "trials")
    for suite in SUITES:
        m[f"cli.suite.{suite}.wall_s"] = _med([
            phase_wall(p, lambda ph: ph["suite"] == suite) for p in untraced])
    for phase in ("richardson", "sample"):
        m[f"bench.{phase}.wall_s"] = _med([
            phase_wall(p, lambda ph: ph["phase"] == phase) for p in untraced])
    m["cli.report_bytes"] = _med([
        sum(ph["report_bytes"] for ph in p["phases"]) for p in untraced])
    m["trace_overhead"] = (_med([wall(p) for p in traced])
                           / _med([wall(p) for p in untraced]))
    m["fail_ratio"] = fail_ratio
    return {name: m[name] for name, _unit in PER_LAYER}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes, never a measurement")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tworb" / "__init__.py").is_file():
        print(f"no tworb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    stamp = environment_stamp()
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size]
    setups, problems = [], []
    for _ in range(SETUP_PROBES):
        ready, _done, lines, err = spawn(base + ["--setup-only"])
        if lines is None:
            problems.append(f"set-up probe failed: {err.strip()[-400:]}")
            break
        setups.append(ready)

    passes = {0: [], 1: []}
    kinds = [0, 1] if args.trace else [0]
    took = {}
    i = 0
    while not problems:
        kind = kinds[i % len(kinds)]
        extra = ["--trace", str(kind)]
        if kind:
            OUT.mkdir(exist_ok=True)
            extra += ["--trace-out", str(
                OUT / f"trace-{args.workload}-seed{args.seed}-"
                      f"{len(passes[1])}.json.gz")]
        ready, done, lines, err = spawn(base + extra)
        if not lines:
            problems.append(f"worker failed: {err.strip()[-400:]}")
            break
        passes[kind].append(json.loads(lines[-1]))
        setups.append(ready)
        took[kind] = done
        i += 1
        nxt = kinds[i % len(kinds)]
        have_all = all(passes[k] for k in kinds)
        if have_all and (time.perf_counter() - started + took.get(nxt, done)
                         > args.seconds):
            break

    if not all(passes[k] for k in kinds):
        # nothing was measured: no result line, only the reason
        print("\n".join(problems) or "no pass completed", file=sys.stderr)
        return 1
    every = passes[0] + passes[1]
    rows = [r for p in every for ph in p["phases"] for r in ph["rows"]]
    attempted = max(len(rows), 1)
    failed = sum(not r[1] for r in rows)
    if not rows:
        problems.append("no case ran")
    problems += [f"{ph['phase']}: {ph['error']}" for p in every
                 for ph in p["phases"] if ph["error"]]
    seen = {json.dumps(digests(p), sort_keys=True) for p in every}
    if len(seen) > 1:
        problems.append("passes of one seed disagree on their report digests")
    for p in passes[1]:
        problems += p["trace_checks"]

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "stamp": stamp,
              "digests": digests(every[0]),
              "passes": {"untraced": len(passes[0]),
                         "traced": len(passes[1])},
              "setup_samples_s": setups,
              "raw_wall_samples_s": [p["end"] - p["start"] for p in passes[0]],
              "speed_factors": [speed(p) for p in every],
              "fail_ratio": failed / attempted,
              "problems": problems}
    if args.trace:
        counts = {json.dumps({k: v["calls"] for k, v in
                              p["trace"]["funcs"].items()}, sort_keys=True)
                  for p in passes[1]}
        detail["trace_counts_repeat"] = len(counts) == 1
        detail["raw_traced_wall_samples_s"] = [p["end"] - p["start"]
                                               for p in passes[1]]
        metrics = layer_metrics(passes[1], passes[0], failed / attempted)
        units = dict(PER_LAYER)
    else:
        lat = case_latencies(passes[0])
        tail_ms, tail_pct = tail(lat)
        detail.update({"cases_per_pass": len(lat),
                       "case_ms.tail_percentile": tail_pct})
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(wall(p) for p in passes[0]),
                   "case_ms.p50": 1000.0 * statistics.median(lat),
                   "case_ms.tail": 1000.0 * tail_ms,
                   "peak_rss_mb": statistics.median(
                       p["peak_rss_mb"] for p in passes[0])}
        units = dict(END_TO_END)
    print(json.dumps({"detail": detail}, separators=(",", ":")))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
