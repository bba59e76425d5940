"""Exact bivariate rational function arithmetic and series expansion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworb.ratfun import (ONE, BivariateRationalFunction, DivisionByZero,
                          FactoredRationalFunction, NonUnitDenominator, Q, T)

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
    assert f.to_ratfun() == geometric_example()
    assert (f / f) == FRF() and (f / f).factors == {}
    assert FRF(-1, 2, {(2, 1): 0}) == FRF(-1, 2)
    assert FRF(-1, 2).to_ratfun() == BRF(T**2, Q)
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
    """Oracle: the same operations on the rendered sympy forms."""
    a, b = pair
    ra, rb = a.to_ratfun(), b.to_ratfun()
    assert (a == b) == (ra == rb)
    assert (a / b).to_ratfun() == ra / rb
    assert (a * b).to_ratfun() == ra * rb
    assert a.substitute_T(q_shift, t_power).to_ratfun() == \
        ra.substitute_T(q_shift, t_power)
