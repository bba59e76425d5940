"""One pass of one workload, in a fresh single-threaded process.

Started by run.py.  Prints ``ready`` once set-up is done (the imports
and the workload's field models), then runs every phase and prints one
JSON object: the pass start and end and every speed probe on the pass
clock, every case with its verdict, latency and end, the report digests
and the peak resident memory.  With ``--trace 1`` the tracer is installed
after ``ready``, checked on a fixed input, and its summary is added; the
spans go to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction

import workloads  # imports tworb: the first part of set-up

PROBE_STEPS = 2000


def speed_probe() -> float:
    """CPU seconds of a fixed stdlib-only kernel (about 17 ms): small
    Fractions, int and tuple arithmetic and dict updates, the kind of work
    tworb does.  It calls no tworb code, so a change to tworb cannot move it.
    """
    start = time.process_time()
    acc, table = Fraction(0), {}
    for i in range(1, PROBE_STEPS):
        f = Fraction(i % 97 + 1, i % 89 + 1)
        acc = acc + f * f if i % 32 else Fraction(0)
        key = (i % 257, i % 7)
        table[key] = table.get(key, 0) + (i * 31) % 10007
        tuple((x * i + 1) % 13 for x in range(6))
    return time.process_time() - start


def run_pass(workload: str, seed: int, size: str = "full", trace: bool = False,
             trace_out: str | None = None) -> dict:
    """One pass of every phase of the workload; tracer installed if asked
    (and removed again before returning)."""
    tracer, checks = None, []
    if trace:
        from tracer import Tracer, self_check

        tracer = Tracer()
        tracer.install()
        checks += [f"unpatched binding site {s}"
                   for s in tracer.unpatched_sites()]
        checks += self_check(tracer)
    rec = workloads.Recorder(
        speed_probe, on_case=tracer.next_case if tracer else None,
        on_pause=tracer.exclude if tracer else None)
    try:
        rec.probe_speed()
        start = rec.now()
        results = [workloads.run_phase(ph, rec, seed)
                   for ph in workloads.phases(workload, workloads.SIZES[size])]
        end = rec.now()
        rec.probe_speed()
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"start": start, "end": end, "probes": rec.probes,
           "phases": results,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        summary = tracer.summary()
        if not summary["balanced"]:
            checks.append("self times do not add up to the traced time")
        out["trace"] = summary
        out["trace_checks"] = checks
        if trace_out:
            tracer.write(trace_out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workloads.setup(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    out = run_pass(args.workload, args.seed, args.size, bool(args.trace),
                   args.trace_out)
    print(json.dumps(out, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
