"""The sympy reference oracle, and the factored and canonical forms of
``tworb.ratfun`` checked against it."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy_ratfun import (ONE, BivariateRationalFunction, DivisionByZero,
                          NonUnitDenominator, Q, T, render)

from tworb.orbits import enumerate_orbits
from tworb.ratfun import FactoredRationalFunction
from tworb.ratfun import NonUnitDenominator as SeriesNeedsUnit
from tworb.ratfun import _cyclotomic
from tworb.zeta import local_zeta_factors, local_zeta_model

BRF = BivariateRationalFunction
FRF = FactoredRationalFunction


def geometric_example():
    # (1 - q^-1)/(1 - q^-1 T)
    num = ONE - BRF.monomial(-1, 0)
    den = ONE - BRF.monomial(-1, 1)
    return num / den


def test_geometric_series_first_coefficients():
    # oracle: geometric series, coefficient at T^m is (1 - q^-1) q^-m
    f = geometric_example()
    coeffs = f.series_expand(2)
    expected = [BRF(Q - 1, Q ** (m + 1)) for m in range(3)]
    assert coeffs == expected


def test_self_division_is_one():
    f = geometric_example()
    assert (f / f).is_one()


def test_difference_of_squares():
    one_minus = BRF(1 - T)
    one_plus = BRF(1 + T)
    assert one_minus * one_plus == BRF(1 - T**2)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / BRF(0)
    with pytest.raises(DivisionByZero):
        BRF(1, 0)


def test_series_needs_unit_denominator():
    f = BRF(1, T)
    with pytest.raises(NonUnitDenominator):
        f.series_expand(2)


def test_canonical_form_is_content_free():
    f = BRF(2 * Q - 2, 4 * Q - 4 * T)
    # content stripped: (q - 1)/(2q - 2T)
    assert f == BRF(Q - 1, 2 * Q - 2 * T)
    assert f.num == Q - 1


def test_negative_leading_denominator_flipped():
    f = BRF(Q, -Q + T)
    import sympy

    lead = sympy.Poly(f.den, Q, T).LC()
    assert lead > 0


def test_substitute_T():
    f = geometric_example()
    g = f.substitute_T(1, 1)  # T -> q^-1 T
    assert g == BRF(Q * (Q - 1), Q**2 - T)


def test_evaluate_exact():
    f = geometric_example()
    assert f.evaluate(2, 1) == Fraction(1)
    assert f.evaluate(Fraction(3), Fraction(1, 2)) == \
        Fraction(2, 3) / (1 - Fraction(1, 6))


points = st.tuples(
    st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def _rand_brf(draw):
    c = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(6)]
    expr = (c[0] + c[1] * Q + c[2] * T + c[3] * Q * T
            + c[4] * Q**2 + c[5] * T**2)
    return expr


@st.composite
def brf_pairs(draw):
    a = _rand_brf(draw)
    b = _rand_brf(draw)
    return BRF(a, 1), BRF(b, 1)


@given(brf_pairs(), st.lists(points, min_size=5, max_size=5, unique=True))
@settings(max_examples=40, deadline=None)
def test_arithmetic_agrees_with_pointwise_evaluation(pair, pts):
    """Oracle: evaluate operands first, then combine as plain Fractions."""
    f, g = pair
    for (q0, t0) in pts:
        fv, gv = f.evaluate(q0, t0), g.evaluate(q0, t0)
        assert (f + g).evaluate(q0, t0) == fv + gv
        assert (f * g).evaluate(q0, t0) == fv * gv
        if not g.is_zero():
            try:
                expected = fv / gv
            except ZeroDivisionError:
                continue
            assert (f / g).evaluate(q0, t0) == expected


@given(brf_pairs())
@settings(max_examples=30, deadline=None)
def test_ring_identities(pair):
    f, g = pair
    assert f + g == g + f
    assert f * g == g * f
    assert f - f == BRF(0)
    if not g.is_zero():
        assert (f / g) * g == f


# -- the factored form ----------------------------------------------------------


def test_factored_render_and_reduction():
    # (1 - q^-1) / (1 - q^-1 T) renders to the geometric example
    f = FRF(0, 0, {(1, 0): 1, (1, 1): -1})
    assert f.to_ratfun().to_json() == geometric_example().to_json()
    assert (f / f) == FRF() and (f / f).factors == {}
    assert FRF(-1, 2, {(2, 1): 0}) == FRF(-1, 2)
    assert FRF(-1, 2).to_ratfun().to_json() == BRF(T**2, Q).to_json()
    with pytest.raises(ValueError):
        FRF(0, 0, {(0, 1): 1})


factored_forms = st.builds(
    FRF, st.integers(-3, 3), st.integers(-2, 2),
    st.dictionaries(st.tuples(st.integers(1, 4), st.integers(0, 3)),
                    st.integers(-2, 2), max_size=3))
factored_pairs = st.one_of(
    st.tuples(factored_forms, factored_forms),
    # equal forms reached along different paths
    st.tuples(factored_forms, factored_forms).map(
        lambda p: (p[0], p[0] * p[1] / p[1])))


@given(factored_pairs, st.integers(0, 2), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_factored_form_agrees_with_canonical_form(pair, q_shift, t_power):
    """Oracle: the same operations on the forms rendered through sympy."""
    a, b = pair
    ra, rb = render(a), render(b)
    assert (a == b) == (ra == rb)
    assert (a / b).to_ratfun().to_json() == (ra / rb).to_json()
    assert (a * b).to_ratfun().to_json() == (ra * rb).to_json()
    assert a.substitute_T(q_shift, t_power).to_ratfun().to_json() == \
        ra.substitute_T(q_shift, t_power).to_json()


def test_cyclotomic_products():
    # oracle: prod_{d | n} Phi_d(x) = x^n - 1, and Phi_d(1) = p for d = p^k
    for n in range(1, 31):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = _cyclotomic(d)
                product = [sum(product[i] * phi[k - i]
                               for i in range(len(product))
                               if 0 <= k - i < len(phi))
                           for k in range(len(product) + len(phi) - 1)]
        assert product == [-1] + [0] * (n - 1) + [1], n
    assert [sum(_cyclotomic(d)) for d in (2, 4, 8, 3, 9, 5)] == \
        [2, 2, 2, 3, 3, 5]


@st.composite
def shared_primitive_forms(draw):
    """Forms with factors 1 - u^k on both sides for one primitive u."""
    alpha = draw(st.integers(1, 3))
    beta = draw(st.sampled_from([b for b in range(4) if gcd(alpha, b) == 1]))
    ks = draw(st.lists(st.integers(1, 6), min_size=2, max_size=3,
                       unique=True))
    ms = draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=len(ks),
                       max_size=len(ks)))
    factors = {(k * alpha, k * beta): m for k, m in zip(ks, ms)}
    extra = draw(st.dictionaries(st.tuples(st.integers(1, 4),
                                           st.integers(0, 3)),
                                 st.integers(-2, 2), max_size=2))
    for key, m in extra.items():
        factors[key] = factors.get(key, 0) + m
    return FRF(draw(st.integers(-3, 3)), draw(st.integers(-2, 2)), factors)


@given(st.one_of(factored_forms, shared_primitive_forms()))
@example(FRF(0, 0, {(2, 2): 1, (1, 1): -1}))   # (1 - u^2) / (1 - u)
@example(FRF(0, 0, {(6, 0): -1, (2, 0): 1}))   # Phi_3 Phi_6 of q^-1 left
@example(FRF(0, 1, {(1, 1): 1}))               # a lone Phi_1 keeps its sign
@settings(max_examples=150, deadline=None)
def test_render_matches_sympy_cancel(form):
    """Cancelling per (u, d) and expanding equals sympy's cancel, byte for
    byte in the printed form."""
    assert form.to_ratfun().to_json() == render(form).to_json()


def _catalog_forms(n_max):
    for n in range(1, n_max + 1):
        for t in enumerate_orbits(n):
            form = FRF()
            for f in local_zeta_factors(t):
                form = form * f
            yield t, form


def test_series_and_values_match_oracle_n6():
    """series_expand(5) and evaluate against sympy for every type n <= 6."""
    for t, form in _catalog_forms(6):
        got, want = local_zeta_model(t), render(form)
        assert got.to_json() == want.to_json(), t
        got_series, want_series = got.series_expand(5), want.series_expand(5)
        assert [c.to_json() for c in got_series] == \
            [c.to_json() for c in want_series], t
        for q0, t0 in ((2, Fraction(1, 3)), (Fraction(5, 2), -1), (7, 2)):
            assert got.evaluate(q0, t0) == want.evaluate(q0, t0), (t, q0)
        for p in (2, 3, 5):
            assert [c.evaluate(p) for c in got_series] == \
                [c.evaluate(p) for c in want_series], (t, p)


def test_series_needs_unit_constant_term():
    with pytest.raises(SeriesNeedsUnit):  # T^-1: no constant T-term
        FRF(0, -1, {(1, 1): 1}).to_ratfun().series_expand(2)
    with pytest.raises(SeriesNeedsUnit):  # den q - 1 is not +-q^k
        FRF(0, 0, {(1, 0): -1}).to_ratfun().series_expand(2)
    # T^2 / q expands with zero leading coefficients
    series = FRF(-1, 2).to_ratfun().series_expand(3)
    assert [c.to_json() for c in series] == [
        {"num": "0", "den": "1"}, {"num": "0", "den": "1"},
        {"num": "1", "den": "q"}, {"num": "0", "den": "1"}]
