#!/usr/bin/env python3
"""Compare a parent and a change on one workload, in alternating pairs.

    python3 perfbench/compare.py --parent DIR --change DIR --workload W

DIR is a checkout holding ``src/tworb``, ``BENCHMARK.json`` and an
identical ``perfbench`` directory.  Pair i of PAIRS runs seed
FIRST_SEED + i on both sides for BENCHMARK.json's run_seconds, parent
first in even pairs and change first in odd ones.
The comparison is invalid when the benchmark code or the environment
stamps (Python, sympy, nproc) differ.  For every end-to-end metric it
prints each side's median and quartiles, how many pairs the change won,
and a verdict by the rule in README.md; it also says whether every
report digest stayed byte-identical to the parent's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import STAMP_KEYS

PAIRS = 10
FIRST_SEED = 1000


def bench_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "perfbench").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: benchmark failed\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float,
            lower_is_better: bool) -> tuple[int, str]:
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    better_by = sign * (pm - cm)
    if wins >= 0.9 * len(parent) and better_by > p3 - p1:
        return wins, "gain"
    if -better_by > bound * pm:
        return wins, "regression"
    all_better = (max(change) < min(parent) if lower_is_better
                  else min(change) > max(parent))
    if (p3 - p1) > bound * pm and not all_better:
        return wins, "unresolved"
    return wins, "no regression"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    if bench_hash(args.parent) != bench_hash(args.change):
        print("INVALID: the two checkouts run different benchmark code")
        return 2

    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = args.parent if side == "parent" else args.change
            runs[side].append(run_once(root, args.workload, seed, seconds))

    stamps = {json.dumps({k: d["stamp"][k] for k in STAMP_KEYS})
              for side in runs.values() for d, _ in side}
    if len(stamps) > 1:
        print(f"INVALID: environment stamps differ: {sorted(stamps)}")
        return 2
    incorrect = [side for side, rs in runs.items()
                 for _, r in rs if not r["correct"]]
    same = [p[0]["digests"] == c[0]["digests"]
            for p, c in zip(runs["parent"], runs["change"])]
    print(f"workload {args.workload}: {PAIRS} pairs, {seconds} s runs; "
          f"reports byte-identical in {sum(same)}/{len(same)} seeds; "
          f"incorrect runs: {incorrect or 'none'}")
    summary = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        p = [r["metrics"][name]["value"] for _, r in runs["parent"]]
        c = [r["metrics"][name]["value"] for _, r in runs["change"]]
        wins, word = verdict(p, c, m["bound"], m["better"] == "lower")
        pq, cq = quartiles(p), quartiles(c)
        summary[name] = {"parent": pq, "change": cq, "wins": wins,
                         "verdict": word}
        print(f"  {name:14s} parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
              f"  change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {m['unit']}"
              f"  wins {wins}/{PAIRS}  {word}")
    print(json.dumps({"workload": args.workload, "identical": all(same),
                      "metrics": summary}))
    return 0 if not incorrect and all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
