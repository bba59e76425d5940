"""Exponent tables, local Igusa factors, homogeneity and scaling checks."""

import dataclasses
from fractions import Fraction

import pytest
from oracles import igusa_shell_measures_naive
from sympy_ratfun import ONE, BivariateRationalFunction, Q, T as TVAR, \
    from_json

import tworb.cli as cli
import tworb.zeta as zeta
from tworb.cli import RunConfig, cmd_orbits
from tworb.fields import make_extension
from tworb.linalg import mat_eq
from tworb.orbits import JordanType, enumerate_orbits, orbit_dimension, \
    standard_representative
from tworb.parabolic import ShapeMismatch
from tworb.zeta import (_entry_factor, delta_matrix, dim_F_uX,
                        exponent_table, homogeneity_identity_check,
                        igusa_matrix_factor, igusa_shell_measures,
                        local_zeta_model, scaling_exponent_check)

RAT = make_extension({"kind": "rational", "tau": 2})
BRF = BivariateRationalFunction


def T(*parts):
    return JordanType(tuple(parts))


# -- delta matrices -----------------------------------------------------------


def test_delta_single_block():
    a = RAT.el(5, -2)
    d = delta_matrix(T(2), {(1, 2): ((a,),)}, RAT)
    assert d.mat[0][1] == a
    assert not d.mat[0][0] and not d.mat[1][0] and not d.mat[1][1]


def test_delta_identity_blocks_give_representative():
    for n in range(1, 9):
        for t in enumerate_orbits(n):
            blocks = {}
            for j in range(2, t.r + 1):
                size = t.parts.count(j)
                if size < 1:
                    continue
                ident = tuple(tuple(1 if a == b else 0 for b in range(size))
                              for a in range(size))
                for i in range(1, j):
                    blocks[(i, j)] = ident
            d = delta_matrix(t, blocks, RAT)
            rep = standard_representative(t, RAT)
            assert mat_eq(d.mat, rep.mat), t


def test_delta_empty_for_single_column_type():
    d = delta_matrix(T(1, 1, 1), {}, RAT)
    assert all(not x for row in d.mat for x in row)


def test_delta_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        delta_matrix(T(2), {}, RAT)
    with pytest.raises(ShapeMismatch):
        delta_matrix(T(2), {(1, 2): ((1, 0), (0, 1))}, RAT)
    with pytest.raises(ShapeMismatch):
        delta_matrix(T(2), {(1, 2): ((1,),), (2, 3): ((1,),)}, RAT)


# -- exponent tables ----------------------------------------------------------


def test_exponent_table_2():
    table = exponent_table(T(2))
    assert [(e.i, e.j, e.e, e.s_coeff) for e in table] == [(1, 2, 1, 1)]
    inv = orbit_dimension(T(2))
    assert (inv.half_dim, inv.c_exponent) == (2, 2)


def test_exponent_table_21():
    table = exponent_table(T(2, 1))
    assert [(e.i, e.j, e.e, e.s_coeff) for e in table] == [(1, 2, 2, 1)]
    inv = orbit_dimension(T(2, 1))
    assert (inv.half_dim, inv.c_exponent) == (4, 2)


def test_exponent_table_31():
    table = exponent_table(T(3, 1))
    assert [(e.i, e.j, e.e, e.s_coeff) for e in table] == \
        [(1, 3, 2, 2), (2, 3, 1, 1)]


def test_exponent_table_column_type_empty():
    assert exponent_table(T(1, 1, 1, 1)) == ()
    inv = orbit_dimension(T(1, 1, 1, 1))
    assert (inv.half_dim, inv.c_exponent) == (0, 0)


def test_exponent_table_totals_match_orbit_dimension():
    # the two identities of homogeneity_identity_check, summed here
    for n in range(0, 13):
        for t in enumerate_orbits(n):
            table = exponent_table(t)
            inv = orbit_dimension(t)
            assert 2 * sum(en.d_j * en.e for en in table) + dim_F_uX(t) == \
                inv.half_dim, t
            assert 2 * sum(en.d_j * en.s_coeff for en in table) == \
                inv.c_exponent, t


# -- homogeneity identities ----------------------------------------------------


def test_homogeneity_identity_examples():
    # (2): 2 + 0 = 2 and 2 = 2
    assert homogeneity_identity_check(T(2))
    # (3,1): 6 + 4 = 10 and 6 = 6
    table = exponent_table(T(3, 1))
    assert 2 * sum(e.d_j * e.e for e in table) == 6
    assert dim_F_uX(T(3, 1)) == 4
    assert homogeneity_identity_check(T(3, 1))
    assert homogeneity_identity_check(T(1, 1, 1, 1))


def test_homogeneity_identity_sweep_n12():
    for n in range(0, 13):
        for t in enumerate_orbits(n):
            assert homogeneity_identity_check(t), t


# -- igusa factors ------------------------------------------------------------


def test_igusa_d0_is_one():
    assert igusa_matrix_factor(0).to_ratfun().to_json() == ONE.to_json()


def test_igusa_d1_formula():
    f = igusa_matrix_factor(1)
    assert f.to_ratfun().to_json() == BRF(Q - 1, Q - TVAR).to_json()
    assert f.factors == {(1, 0): 1, (1, 1): -1}
    # geometric shells: coefficient of T^m is (1 - q^-1) q^-m
    coeffs = f.to_ratfun().series_expand(3)
    for m, c in enumerate(coeffs):
        assert c.to_json() == BRF(Q - 1, Q ** (m + 1)).to_json()


def test_igusa_unit_cell_constant_term():
    # T^0 coefficient is the measure of the invertible cell
    for d in (1, 2, 3):
        c0 = igusa_matrix_factor(d).to_ratfun().series_expand(0)[0]
        expected = BRF(1)
        for k in range(d):
            expected = expected * (BRF(1) - BRF.monomial(-(k + 1), 0))
        assert c0.to_json() == expected.to_json()


def test_igusa_series_nonnegative_and_summable():
    for d in (1, 2):
        coeffs = igusa_matrix_factor(d).to_ratfun().series_expand(6)
        for p in (2, 3, 5):
            vals = [c.evaluate(p) for c in coeffs]
            assert all(v >= 0 for v in vals)
            assert sum(vals) <= 1


def test_shell_tally_matches_naive_enumeration_p2():
    assert igusa_shell_measures(2, 2) == igusa_shell_measures_naive(2, 2)


def test_igusa_matches_shell_measures():
    for d in (0, 1, 2):
        series = igusa_matrix_factor(d).to_ratfun().series_expand(3)
        for p in (2, 3):
            shells = igusa_shell_measures(d, p)
            assert [c.evaluate(p) for c in series] == shells, (d, p)


def test_shell_measures_d1_p2_closed_form():
    # measure of v(x) = m in Z_2 is 2^-m - 2^-(m+1)
    shells = igusa_shell_measures(1, 2)
    assert shells == [Fraction(1, 2 ** (m + 1)) for m in range(4)]


# -- local models and scaling ---------------------------------------------------


def test_local_model_trivial_for_zero_orbit():
    assert local_zeta_model(exponent_table(T(1, 1, 1))).to_json() == \
        ONE.to_json()


def test_local_model_2():
    # single factor with exponent 1 + s: pole when q^(-(1+s)+... ) i.e.
    # denominator q^2 - T after clearing negative powers
    assert local_zeta_model(exponent_table(T(2))).to_json() == \
        BRF(Q * (Q - 1), Q**2 - TVAR).to_json()


def test_local_model_21():
    assert local_zeta_model(exponent_table(T(2, 1))).to_json() == \
        BRF(Q**2 * (Q - 1), Q**3 - TVAR).to_json()


def _sympy_igusa_value(d):
    value = BRF(1)
    for a in range(1, d + 1):
        value = value * ((BRF(1) - BRF.monomial(-a, 0))
                         / (BRF(1) - BRF.monomial(-a, 1)))
    return value


def test_local_model_matches_sympy_product_n5():
    # oracle: each factor built and shifted in sympy, then the iterated
    # sympy product of the rendered factor values
    for d in range(4):
        assert igusa_matrix_factor(d).to_ratfun().to_json() == \
            _sympy_igusa_value(d).to_json(), d
    for n in range(1, 6):
        for t in enumerate_orbits(n):
            product = BRF(1)
            table = exponent_table(t)
            for en in table:
                shifted = _sympy_igusa_value(en.d_j).substitute_T(
                    en.e, en.s_coeff)
                assert _entry_factor(en).to_ratfun().to_json() == \
                    shifted.to_json(), t
                product = product * shifted
            assert local_zeta_model(table).to_json() == product.to_json(), t


def test_local_factor_provenance():
    # each exponent-table entry's factor is its block's shifted Igusa factor
    entries = exponent_table(T(3, 1))
    assert [(en.i, en.j, en.d_j, en.e, en.s_coeff) for en in entries] == \
        [(1, 3, 1, 2, 2), (2, 3, 1, 1, 1)]
    assert [_entry_factor(en).factors for en in entries] == \
        [{(1, 0): 1, (3, 2): -1}, {(1, 0): 1, (2, 1): -1}]


def test_scaling_exponent_examples():
    assert scaling_exponent_check(T(1, 1, 1), 1)
    assert scaling_exponent_check(T(2), 1)
    assert scaling_exponent_check(T(3, 1), 2)


def test_scaling_factor_values():
    # (2), k=1: the transformed/original ratio is q^-2 T^2
    t = T(2)
    transformed = BRF.monomial(-dim_F_uX(t), 0)
    original = BRF(1)
    for en in exponent_table(t):
        value = from_json(_entry_factor(en).to_ratfun().to_json())
        original = original * value
        transformed = transformed * (
            BRF.monomial(-2 * en.d_j * en.e, 2 * en.d_j * en.s_coeff) * value)
    assert transformed / original == BRF.monomial(-2, 2)

    inv31 = orbit_dimension(T(3, 1))
    assert BRF.monomial(-2 * inv31.half_dim, 2 * inv31.c_exponent) == \
        BRF(TVAR**12, Q**20)


def test_scaling_sweep_small():
    for n in range(1, 5):
        for t in enumerate_orbits(n):
            for k in (1, 2, 3):
                assert scaling_exponent_check(t, k), (t, k)


@pytest.mark.parametrize("shift", ["half_dim", "c_exponent", "dim_F_uX"])
def test_scaling_check_can_fail(monkeypatch, shift):
    types = (T(1, 1), T(2), T(2, 1), T(3, 1), T(2, 2))
    # the unpatched check passes on the same objects first, so every cache
    # on the path is warm: a cached value must not outlive the patch
    for t in types:
        for k in (1, 2, 3):
            assert scaling_exponent_check(t, k), (t, k)
    if shift == "dim_F_uX":
        real_dim = zeta.dim_F_uX
        monkeypatch.setattr(zeta, "dim_F_uX", lambda t: real_dim(t) + 1)
    else:
        real_inv = zeta.orbit_dimension

        def shifted(t):
            inv = real_inv(t)
            return dataclasses.replace(inv, **{shift: getattr(inv, shift) + 1})

        monkeypatch.setattr(zeta, "orbit_dimension", shifted)
    for t in types:
        for k in (1, 2, 3):
            assert not scaling_exponent_check(t, k), (shift, t, k)


@pytest.mark.parametrize("shift", ["half_dim", "c_exponent"])
def test_identity_check_can_fail(monkeypatch, shift):
    types = [t for n in range(0, 6) for t in enumerate_orbits(n)]
    cfg = RunConfig(n_max=5)
    # the unpatched check passes first, so the orbit_dimension cache is warm
    assert all(homogeneity_identity_check(t) for t in types)
    assert cli.cmd_verify("identity", cfg)[0] == 0
    real_inv = zeta.orbit_dimension

    def shifted(t):
        inv = real_inv(t)
        return dataclasses.replace(inv, **{shift: getattr(inv, shift) + 1})

    monkeypatch.setattr(zeta, "orbit_dimension", shifted)
    assert not any(homogeneity_identity_check(t) for t in types)
    code, report = cli.cmd_verify("identity", cfg)
    assert code == 1 and report["passed"] == 0
    assert report["failed"] == len(types)


def test_scaling_check_builds_one_exponent_table(monkeypatch):
    calls = []
    real_table = zeta.exponent_table

    def counted(t):
        calls.append(t)
        return real_table(t)

    monkeypatch.setattr(zeta, "exponent_table", counted)
    for t in (T(1), T(2), T(3, 1), T(2, 2, 1), T(4, 3, 3, 1)):
        for k in (1, 2, 3):
            calls.clear()
            assert scaling_exponent_check(t, k)
            assert calls == [t], (t, k)


def test_orbit_catalog_builds_one_exponent_table_per_row(monkeypatch):
    calls = []
    real_table = zeta.exponent_table

    def counted(t):
        calls.append(t)
        return real_table(t)

    monkeypatch.setattr(zeta, "exponent_table", counted)
    monkeypatch.setattr(cli, "exponent_table", counted)
    code, report = cmd_orbits(RunConfig(n=6))
    assert code == 0 and len(report["rows"]) == 11
    assert calls == enumerate_orbits(6)


def test_scaling_rejects_bad_k():
    with pytest.raises(ValueError):
        scaling_exponent_check(T(2), 0)
