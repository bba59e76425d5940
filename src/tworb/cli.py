"""Batch front-end: orbit catalogs, verification suites, orbit induction.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or configuration
error.  With a fixed seed the JSON output is byte-identical across reruns;
all randomness flows from the single seed in the run configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import zlib
from dataclasses import dataclass, field

from .fields import FieldModelError, _prime_factors, make_extension
from .orbits import (JordanType, check_dimHY, centralizer_dim_oracle,
                     enumerate_orbits, gl_order, orbit_census,
                     orbit_dimension, stabilizer_order,
                     standard_representative)
from .parabolic import (GenericityFailure, adapted_parabolic,
                        flag_fixed_count, induce_orbit_report,
                        n_x_dim_oracle, standard_parabolic, verify_porb)
from .zeta import (exponent_table, homogeneity_identity_check,
                   igusa_matrix_factor, igusa_shell_measures,
                   local_zeta_model, scaling_exponent_check)

SCHEMA = "tworb/1"


@dataclass
class RunConfig:
    field: dict = field(default_factory=lambda: {"kind": "rational", "tau": 2})
    seed: int = 0
    fmt: str = "json"
    n: int | None = None
    n_max: int | None = None
    q: int = 2
    trials: int = 20
    series_order: int = 3
    budget: int = 10**7

    def case_seed(self, key: str) -> int:
        # stable per-case derivation, independent of execution order
        return (self.seed * 0x9E3779B1 + zlib.crc32(key.encode())) % 2**63

    def to_json(self) -> dict:
        return {
            "field": self.field,
            "seed": self.seed,
            "n": self.n,
            "n_max": self.n_max,
            "q": self.q,
            "trials": self.trials,
            "series_order": self.series_order,
            "budget": self.budget,
        }


def _finite_field(q: int) -> dict:
    """The field descriptor with F = F_q, for q a prime power."""
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise FieldModelError(f"q={q} is not a prime power")
    p, e = primes[0], 1
    while p**e < q:
        e += 1
    return {"kind": "finite", "p": p, "e": e}


# ---------------------------------------------------------------------------
# verification suites; each returns cases in canonical order


def _all_compositions(n: int):
    if n == 0:
        return
    for bits in range(2 ** (n - 1)):
        comp, run = [], 1
        for i in range(n - 1):
            if bits & (1 << i):
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        yield tuple(comp)


def _type_combos(comp):
    import itertools

    per_block = [enumerate_orbits(size) for size in comp]
    yield from itertools.product(*per_block)


def suite_centralizer(cfg: RunConfig) -> list[dict]:
    model = make_extension(cfg.field)
    n_max = cfg.n_max if cfg.n_max is not None else 6
    cases = []
    for n in range(1, n_max + 1):
        for t in enumerate_orbits(n):
            expected = orbit_dimension(t).centralizer_dim_F
            got = centralizer_dim_oracle(standard_representative(t, model))
            cases.append({"case": f"n={n} type={t}", "ok": got == expected,
                          "oracle": got, "formula": expected})
    return cases


def suite_identity(cfg: RunConfig) -> list[dict]:
    n_max = cfg.n_max if cfg.n_max is not None else 12
    return [{"case": f"n={n} type={t}", "ok": homogeneity_identity_check(t)}
            for n in range(0, n_max + 1) for t in enumerate_orbits(n)]


def suite_ux(cfg: RunConfig) -> list[dict]:
    model = make_extension(cfg.field)
    n_max = cfg.n_max if cfg.n_max is not None else 5
    cases = []
    for n in range(1, n_max + 1):
        for t in enumerate_orbits(n):
            ad = adapted_parabolic(t)
            got = ad.dim_F_sN - n_x_dim_oracle(t, model)
            cases.append({"case": f"n={n} type={t}",
                          "ok": got == ad.dim_F_uX,
                          "dim_n_minus_nx": got, "dim_uX": ad.dim_F_uX})
    return cases


def _q_degree(count: int, Q: int) -> int:
    deg = 0
    while Q ** (deg + 1) <= count:
        deg += 1
    return deg


def suite_dimhy(cfg: RunConfig) -> list[dict]:
    n_max = cfg.n_max if cfg.n_max is not None else 12
    cases = [{"case": f"n={n} type={t}", "ok": check_dimHY(t)}
             for n in range(0, n_max + 1) for t in enumerate_orbits(n)]
    model = make_extension(_finite_field(cfg.q))
    Q = model.q ** 2
    for n in range(1, min(3, n_max) + 1):
        for t in enumerate_orbits(n):
            count = flag_fixed_count(standard_representative(t, model))
            dim_e = orbit_dimension(t).springer_dim_F // 2
            cases.append({
                "case": f"flag n={n} type={t} q={model.q}",
                "ok": _q_degree(count, Q) == dim_e,
                "count": count, "dim_E": dim_e,
            })
    return cases


def suite_porb(cfg: RunConfig) -> list[dict]:
    model = make_extension(cfg.field)
    n_max = cfg.n_max if cfg.n_max is not None else 4
    cases = []
    for n in range(1, n_max + 1):
        for comp in _all_compositions(n):
            shape = standard_parabolic(comp)
            for types in _type_combos(comp):
                key = (f"comp={comp} types="
                       f"{';'.join(str(t) for t in types)}")
                report = verify_porb(shape, types, model, trials=cfg.trials,
                                     seed=cfg.case_seed(key))
                cases.append({"case": key, "ok": report.ok,
                              **report.to_json()})
    return cases


def suite_igusa(cfg: RunConfig) -> list[dict]:
    order = min(cfg.series_order, 3)
    cases = []
    for d in (0, 1, 2):
        series = igusa_matrix_factor(d).to_ratfun().series_expand(order)
        for p in (2, 3):
            shells = igusa_shell_measures(d, p, order=order)
            got = [coeff.evaluate(p) for coeff in series]
            cases.append({
                "case": f"d={d} p={p}",
                "ok": got == shells,
                "series_at_p": [str(x) for x in got],
                "shell_measures": [str(x) for x in shells],
            })
    return cases


def suite_scaling(cfg: RunConfig) -> list[dict]:
    n_max = cfg.n_max if cfg.n_max is not None else 6
    return [{"case": f"n={n} type={t} k={k}",
             "ok": scaling_exponent_check(t, k)}
            for n in range(1, n_max + 1) for t in enumerate_orbits(n)
            for k in (1, 2, 3)]


def suite_census(cfg: RunConfig) -> list[dict]:
    n = cfg.n if cfg.n is not None else 2
    model = make_extension(_finite_field(cfg.q))
    counts = orbit_census(n, model, budget=cfg.budget)
    group = gl_order(model.q ** 2, n)
    cases = []
    for t, count in counts.items():
        stab = stabilizer_order(standard_representative(t, model))
        cases.append({
            "case": f"type={t}", "ok": count * stab == group,
            "type": t.to_json(), "count": count,
            "centralizer_order": stab, "group_order": group,
        })
    if n == 2:
        nonzero = {t: c for t, c in counts.items() if t.parts != (1, 1)}
        cases.append({
            "case": "bucket-structure",
            "ok": (set(counts) == {JordanType((2,)), JordanType((1, 1))}
                   and counts[JordanType((1, 1))] == 1
                   and all(c > 0 for c in nonzero.values())),
            "buckets": [t.to_json() for t in counts],
        })
    return cases


# the commands that build no field model, so they accept any --tau and --q
FIELD_FREE = ("orbits", "identity", "igusa", "scaling")

SUITES = {
    "centralizer": suite_centralizer,
    "identity": suite_identity,
    "uX": suite_ux,
    "dimHY": suite_dimhy,
    "porb": suite_porb,
    "igusa": suite_igusa,
    "scaling": suite_scaling,
    "census": suite_census,
}


# ---------------------------------------------------------------------------
# commands


def cmd_orbits(cfg: RunConfig) -> tuple[int, dict]:
    n = cfg.n if cfg.n is not None else 4
    rows = []
    for t in enumerate_orbits(n):
        inv = orbit_dimension(t)
        table = exponent_table(t)
        factor = local_zeta_model(table)
        series = factor.series_expand(cfg.series_order)
        rows.append({
            "type": t.to_json(),
            **inv.to_json(),
            "table": [en.to_json() for en in table],
            "local_factor": factor.to_json(),
            "series": [c.to_json() for c in series],
        })
    note = ("local_factor is the unramified monomial model up to the "
            "compact-integration constant; exponents only")
    return 0, {"schema": SCHEMA, "command": "orbits", "n": n,
               "config": cfg.to_json(), "note": note, "rows": rows}


def cmd_verify(suite: str, cfg: RunConfig) -> tuple[int, dict]:
    cases = SUITES[suite](cfg)
    failed = [c for c in cases if not c["ok"]]
    report = {
        "schema": SCHEMA, "command": "verify", "suite": suite,
        "config": cfg.to_json(),
        "cases": cases,
        "passed": len(cases) - len(failed),
        "failed": len(failed),
    }
    return (1 if failed else 0), report


def cmd_induce(levi: str, types: str | None, cfg: RunConfig) -> tuple[int, dict]:
    comp = tuple(int(x) for x in levi.split(","))
    shape = standard_parabolic(comp)
    if types:
        m_types = tuple(
            JordanType(tuple(sorted((int(p) for p in block.split(",")),
                                    reverse=True)))
            for block in types.split(";"))
    else:
        m_types = tuple(JordanType((1,) * size) for size in comp)
    model = make_extension(cfg.field)
    report = {"schema": SCHEMA, "command": "induce",
              "config": cfg.to_json(), "levi": list(comp),
              "types": [t.to_json() for t in m_types]}
    try:
        result = induce_orbit_report(shape, m_types, model, seed=cfg.seed,
                                     max_trials=max(cfg.trials, 1))
    except GenericityFailure as exc:
        report.update({"ok": False, "error": str(exc)})
        return 1, report
    report.update({"ok": True, "induced_type": result.induced_type.to_json(),
                   "trials_used": result.trials_used,
                   "rejected": result.rejected})
    return 0, report


# ---------------------------------------------------------------------------
# output formatting


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True,
                             separators=(",", ":")) + "\n")
        return
    if fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        rows = report.get("rows") or report.get("cases")
        if rows is None:
            items = sorted((k, v) for k, v in report.items()
                           if not isinstance(v, (dict, list)))
            writer.writerow([k for k, _ in items])
            writer.writerow([v for _, v in items])
            return
        keys = sorted({k for r in rows for k in r})
        writer.writerow(keys)
        for r in rows:
            writer.writerow([json.dumps(r.get(k), sort_keys=True)
                             if isinstance(r.get(k), (dict, list))
                             else r.get(k) for k in keys])
        return
    # pretty
    rows = report.get("rows") or report.get("cases")
    head = {k: v for k, v in report.items() if not isinstance(v, (dict, list))}
    out.write("  ".join(f"{k}={v}" for k, v in sorted(head.items())) + "\n")
    if rows:
        for r in rows:
            mark = ""
            if "ok" in r:
                mark = "PASS " if r["ok"] else "FAIL "
            label = r.get("case") or json.dumps(r.get("type"))
            rest = {k: v for k, v in r.items() if k not in ("case", "ok")}
            out.write(f"  {mark}{label}  "
                      + json.dumps(rest, sort_keys=True) + "\n")
    for k in ("induced_type", "ok", "error"):
        if k in report:
            out.write(f"{k}: {json.dumps(report[k])}\n")


def _tau(text: str) -> int | str:
    """--tau as an int when it is one, else the string as given, which
    make_extension reads as a rational (such as 1/2) and validates."""
    try:
        return int(text)
    except ValueError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tworb",
        description="exact twisted-orbit catalogs and verification suites")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--field", choices=["rational", "finite"],
                       default="rational")
        p.add_argument("--tau", type=_tau, default=2)
        p.add_argument("--q", type=int, default=2)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=["json", "csv", "pretty"],
                       default="json")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--n-max", type=int, default=None)
        p.add_argument("--trials", type=int, default=20)
        p.add_argument("--series-order", type=int, default=3)
        p.add_argument("--budget", type=int, default=10**7)

    p_orbits = sub.add_parser("orbits", help="catalog for a given n")
    add_common(p_orbits)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    add_common(p_verify)

    p_induce = sub.add_parser("induce", help="induce an orbit from a Levi")
    p_induce.add_argument("--levi", required=True,
                          help="composition, e.g. 2,1")
    p_induce.add_argument("--types", default=None,
                          help="per-block partitions, e.g. 1,1;1")
    add_common(p_induce)
    return parser


def _config_from(args) -> RunConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("TWORB_SEED", "0"))
    command = getattr(args, "suite", None) or args.command
    # census and dimHY count over F_q from --q, whatever --field says
    if args.field == "finite" or command in ("census", "dimHY"):
        try:
            fdesc = _finite_field(args.q)
        except FieldModelError:
            # a command over no field never reads q; it echoes q as given
            if command not in FIELD_FREE:
                raise
            fdesc = {"kind": "finite", "q": args.q}
    else:
        fdesc = {"kind": "rational", "tau": args.tau}
    if args.trials < 1 or args.series_order < 0 or args.budget < 1:
        raise FieldModelError("budgets must be positive")
    # no model is built here: centralizer, uX, porb and induce build theirs
    # before any output, and the other commands compute over no field
    return RunConfig(field=fdesc, seed=seed, fmt=args.format, n=args.n,
                     n_max=args.n_max, q=args.q, trials=args.trials,
                     series_order=args.series_order, budget=args.budget)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
    except (FieldModelError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "orbits":
            code, report = cmd_orbits(cfg)
        elif args.command == "verify":
            code, report = cmd_verify(args.suite, cfg)
        else:
            code, report = cmd_induce(args.levi, args.types, cfg)
    except (FieldModelError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    _emit(report, cfg.fmt, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
