"""Field model construction, the involution, and norms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworb.fields import (ExtElement, FieldModelError, FiniteModel, NotPrime,
                          QuadraticExtensionModel, RadicandIsSquare,
                          RationalElement, RationalModel, make_extension)
from tworb.linalg import TwistedEndo

RAT = make_extension({"kind": "rational", "tau": 2})
F9 = make_extension({"kind": "finite", "p": 3, "e": 1})
F4 = make_extension({"kind": "finite", "p": 2, "e": 1})


def norm(x):
    """x * sigma(x), which lies in F."""
    return x * x.model.sigma(x)


def gen(m):
    """The class of x in E = F_p[x]/(mu), the second prime basis element."""
    return m.prime_basis()[1]


def test_make_extension_rational():
    m = make_extension({"kind": "rational", "tau": 2})
    assert m.kind == "rational" and m.tau == 2


def test_make_extension_square_radicand_rejected():
    with pytest.raises(RadicandIsSquare):
        make_extension({"kind": "rational", "tau": 4})
    with pytest.raises(RadicandIsSquare):
        make_extension({"kind": "rational", "tau": 0})
    with pytest.raises(RadicandIsSquare):
        make_extension({"kind": "rational", "tau": Fraction(9, 4)})


def test_make_extension_not_prime():
    with pytest.raises(NotPrime):
        make_extension({"kind": "finite", "p": 4, "e": 1})
    with pytest.raises(NotPrime):
        make_extension({"kind": "finite", "p": 1, "e": 1})


def test_make_extension_bad_descriptor():
    with pytest.raises(FieldModelError):
        make_extension({"kind": "padic"})
    with pytest.raises(FieldModelError):
        make_extension({"kind": "finite", "p": 3, "e": 0})


def test_sigma_rational_examples():
    assert RAT.sigma(RAT.one) == RAT.one
    x = RAT.el(3, 2)
    assert RAT.sigma(x) == RAT.el(3, -2)
    assert RAT.sigma(RAT.sigma(x)) == x


def test_f9_sigma_is_cube_and_fixes_exactly_f3():
    # x -> x^3 on all nine elements; the fixed field must be F_3 exactly
    els = list(F9.elements())
    assert len(els) == 9
    for x in els:
        assert F9.sigma(x) == x * x * x
        assert F9.sigma(F9.sigma(x)) == x
    fixed = [x for x in els if F9.sigma(x) == x]
    assert len(fixed) == 3
    f3 = {F9.from_int(0), F9.from_int(1), F9.from_int(2)}
    assert set(fixed) == f3


def test_norm_examples():
    assert norm(RAT.one) == RAT.one
    x = RAT.el(3, 2)
    # a^2 - tau b^2 = 9 - 8
    assert norm(x) == RAT.el(1)
    assert RAT.sigma(norm(x)) == norm(x)


def test_norm_surjective_onto_f3_units():
    # norm x = x^(q+1) = x^4; exhaustively it covers all of F_3^x
    values = {norm(x) for x in F9.elements() if x}
    assert values == {F9.from_int(1), F9.from_int(2)}
    # a multiplicative generator maps to an element of order 2
    for g in F9.elements():
        if not g:
            continue
        powers = set()
        acc = F9.one
        for _ in range(8):
            acc = acc * g
            powers.add(acc)
        if len(powers) == 8:
            n4 = norm(g)
            assert n4 != F9.one and n4 * n4 == F9.one
            break
    else:
        pytest.fail("F_9 has a multiplicative generator")


def test_finite_e2_model():
    # F_16 over F_4: sigma = x -> x^4 must fix exactly 4 elements
    m = make_extension({"kind": "finite", "p": 2, "e": 2})
    els = list(m.elements())
    assert len(els) == 16
    fixed = [x for x in els if m.sigma(x) == x]
    assert len(fixed) == 4
    for x in els:
        assert m.sigma(m.sigma(x)) == x
        assert m.sigma(norm(x)) == norm(x)
        if x:
            assert x * x.inverse() == m.one


def test_inverses_exhaustive_small_fields():
    # the inverse is x^(q^2 - 2); F_16 and F_81 have e = 2, F_25 has p = 5
    f16, f25, f81 = (make_extension({"kind": "finite", "p": p, "e": e})
                     for p, e in ((2, 2), (5, 1), (3, 2)))
    for model in (F4, F9, f16, f25, f81):
        for x in model.elements():
            if x:
                assert x * x.inverse() == model.one


def test_inverse_and_division():
    x = RAT.el(3, 2)
    assert x * x.inverse() == RAT.one
    y = gen(F9)
    assert y * y.inverse() == F9.one
    with pytest.raises(ZeroDivisionError):
        RAT.zero.inverse()


def test_integral_payloads_are_ints():
    assert all(type(c) is int for c in RAT.el(3, -2).payload)
    assert all(type(c) is int for c in (RAT.zero.payload + RAT.gen.payload))
    assert type(RAT.tau) is int
    half = RAT.el(Fraction(1, 2), 4)
    assert half.payload == (Fraction(1, 2), 4) and type(half.payload[1]) is int
    # the inverse divides exactly, never as a float
    inv = RAT.el(3, 2).inverse()
    assert inv == RAT.el(3, -2)
    assert all(type(c) is int for c in inv.payload)
    assert RAT.el(2).inverse().payload == (Fraction(1, 2), 0)


def test_integral_fraction_equals_int():
    x, y = RAT.el(Fraction(4, 2)), RAT.from_int(2)
    assert x == y and hash(x) == hash(y)
    assert x.payload == y.payload == (2, 0)
    assert all(type(c) is int for c in x.payload)
    # an integral Fraction reached by arithmetic still agrees with the int
    z = RAT.el(Fraction(1, 2)) * 4
    assert z == y and hash(z) == hash(y)
    assert z.payload == y.payload
    assert repr(z) == repr(y) == "ExtElement(2+0*sqrt(2))"
    assert repr(RAT.el(Fraction(-1, 3), 5)) == "ExtElement(-1/3+5*sqrt(2))"


def test_mixed_models_raise():
    rat3 = make_extension({"kind": "rational", "tau": 3})
    f16 = make_extension({"kind": "finite", "p": 2, "e": 2})
    for x, y in [(RAT.one, rat3.one), (RAT.gen, rat3.gen),
                 (gen(F4), gen(F9)), (F4.one, f16.one)]:
        # sigma reads the payload of its own model only, in both directions
        with pytest.raises(FieldModelError):
            x.model.sigma(y)
        with pytest.raises(FieldModelError):
            y.model.sigma(x)
        with pytest.raises(FieldModelError):
            x + y
        with pytest.raises(FieldModelError):
            x * y
        with pytest.raises(FieldModelError):
            y - x
        with pytest.raises(FieldModelError):
            x == y


def test_equal_models_from_separate_calls_combine():
    rat2 = make_extension({"kind": "rational", "tau": 2})
    assert rat2 is not RAT and rat2 == RAT
    assert RAT.one + rat2.gen == RAT.el(1, 1)
    assert rat2.gen * RAT.gen == rat2.from_int(2)
    assert RAT.sigma(rat2.gen) == -RAT.gen
    assert RAT.sigma(rat2.one).model is RAT
    f9 = make_extension({"kind": "finite", "p": 3, "e": 1})
    assert gen(F9) * gen(f9) == gen(f9) * gen(F9)
    assert F9.sigma(gen(f9)) == f9.sigma(gen(F9))
    # the kind is decided once: one class per model, one shared base
    assert type(RAT) is RationalModel and type(F9) is FiniteModel
    assert all(isinstance(m, QuadraticExtensionModel) for m in (RAT, F9))
    assert hash(rat2) == hash(RAT) and hash(f9) == hash(F9)
    assert RAT != F9 and F4 != F9
    # reports and TwistedEndo reprs print the model repr
    assert repr(RAT) == "QuadraticExtensionModel(Q(sqrt(2)))"
    assert repr(F9) == "QuadraticExtensionModel(F_9/F_3)"
    f16 = make_extension({"kind": "finite", "p": 2, "e": 2})
    assert repr(f16) == "QuadraticExtensionModel(F_16/F_4)"
    half = make_extension({"kind": "rational", "tau": "1/2"})
    assert repr(half) == "QuadraticExtensionModel(Q(sqrt(1/2)))"
    assert repr(TwistedEndo.from_rows(F9, [[1]])) == (
        "TwistedEndo(model=QuadraticExtensionModel(F_9/F_3), n=1, "
        "mat=((ExtElement([1, 0]),),))")


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def rational_elements(draw):
    return RAT.el(draw(small_fracs), draw(small_fracs))


@st.composite
def f9_elements(draw):
    return F9.element_from_index(draw(st.integers(min_value=0, max_value=8)))


@given(rational_elements(), rational_elements())
def test_sigma_is_ring_morphism_rational(x, y):
    sigma = RAT.sigma
    assert sigma(x * y) == sigma(x) * sigma(y)
    assert sigma(x + y) == sigma(x) + sigma(y)
    assert sigma(sigma(x)) == x


@given(f9_elements(), f9_elements())
def test_sigma_is_ring_morphism_finite(x, y):
    sigma = F9.sigma
    assert sigma(x * y) == sigma(x) * sigma(y)
    assert sigma(x + y) == sigma(x) + sigma(y)
    assert sigma(sigma(x)) == x


@given(rational_elements(), rational_elements())
def test_norm_multiplicative_rational(x, y):
    assert norm(x * y) == norm(x) * norm(y)


@given(f9_elements(), f9_elements())
def test_norm_multiplicative_finite(x, y):
    assert norm(x * y) == norm(x) * norm(y)


@given(rational_elements())
def test_norm_lands_in_base_field(x):
    nx = norm(x)
    assert RAT.sigma(nx) == nx
    a, b = x.payload
    assert nx == RAT.el(a * a - RAT.tau * b * b)


@given(f9_elements(), f9_elements())
@settings(max_examples=30)
def test_field_axioms_spot_finite(x, y):
    assert x + y == y + x
    assert x * y == y * x
    if y:
        assert (x * y) / y == x


# -- RationalElement against the reference formula on Fractions --------------

# payload coordinates: ints, non-integral Fractions, and integral Fractions
# such as arithmetic on Fractions leaves behind
payload_coords = st.one_of(st.integers(-6, 6), small_fracs,
                           st.integers(-6, 6).map(Fraction))


def _ref_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c + RAT.tau * b * d, a * d + b * c)


# payloads the fast paths return as they are: zero, one and sigma-fixed
# (c, 0), with int and integral-Fraction coordinates
trivial_payloads = st.one_of(
    st.sampled_from([(0, 0), (1, 0), (Fraction(0), Fraction(0)),
                     (Fraction(1), Fraction(0)), (Fraction(1), 0)]),
    st.tuples(payload_coords, st.sampled_from([0, Fraction(0)])))
payloads = st.one_of(trivial_payloads,
                     st.tuples(payload_coords, payload_coords))


@given(payloads, payloads, st.one_of(st.sampled_from([0, 1]),
                                     st.integers(-5, 5)))
def test_rational_element_matches_reference_formula(xp, yp, m):
    x, y = RationalElement(RAT, xp), RationalElement(RAT, yp)
    fx, fy = tuple(map(Fraction, xp)), tuple(map(Fraction, yp))
    fm = (Fraction(m), Fraction(0))
    cases = [
        (x + y, (fx[0] + fy[0], fx[1] + fy[1])),
        (y + x, (fx[0] + fy[0], fx[1] + fy[1])),
        (x - y, (fx[0] - fy[0], fx[1] - fy[1])),
        (x * y, _ref_mul(fx, fy)),
        (y * x, _ref_mul(fy, fx)),
        (-x, (-fx[0], -fx[1])),
        (x + m, (fx[0] + m, fx[1])),
        (m + x, (fx[0] + m, fx[1])),
        (x - m, (fx[0] - m, fx[1])),
        (m - x, (m - fx[0], -fx[1])),
        (x * m, _ref_mul(fx, fm)),
        (m * x, _ref_mul(fm, fx)),
        (RAT.sigma(x), (fx[0], -fx[1])),
    ]
    for got, want in cases:
        assert type(got) is RationalElement and got.model is RAT
        assert got.payload == want
    assert bool(x) is (fx != (0, 0))
    if all(type(v) is int for v in xp + yp):
        # Z[sqrt(tau)] computes in plain ints
        for got, _ in cases:
            assert all(type(v) is int for v in got.payload)


def test_trivial_operations_return_an_operand_of_the_same_model():
    x, zero, one = RAT.el(3, 1), RAT.zero, RAT.one
    assert x + zero is x and zero + x is x and x - zero is x
    assert x * one is x and x * zero is zero
    fixed = RAT.el(Fraction(1, 2))
    assert RAT.sigma(fixed) is fixed
    # an int operand is read, never returned
    assert type(zero + 5) is RationalElement and (zero + 5).payload == (5, 0)


def test_trivial_operations_keep_the_model_object():
    # an equal model from a second call is a different object; returning
    # its elements would move a result out of RAT
    other = make_extension({"kind": "rational", "tau": 2})
    assert other == RAT and other is not RAT
    z, z0 = other.el(3), other.zero
    cases = [
        (RAT.zero + z, (3, 0)),
        (RAT.el(3, 1) * z0, (0, 0)),
        (RAT.sigma(z), (3, 0)),
        (RAT.el(3, 1) + z0, (3, 1)),
        (RAT.el(3, 1) * other.one, (3, 1)),
    ]
    for got, want in cases:
        assert type(got) is RationalElement and got.model is RAT
        assert got.payload == want


def test_rational_elements_have_their_own_class():
    assert type(RAT.one) is RationalElement and type(RAT.gen) is RationalElement
    assert type(RAT.sigma(RAT.gen)) is RationalElement
    assert type(RAT.el(3, 2).inverse()) is RationalElement
    # finite elements keep the base class, which delegates to FiniteModel
    assert type(F9.one) is ExtElement and type(gen(F9).inverse()) is ExtElement
    # repr and hash are the base class's
    assert repr(RAT.gen) == "ExtElement(0+1*sqrt(2))"
    assert hash(RAT.el(Fraction(1, 2), 3)) == hash((Fraction(1, 2), 3))


def test_rational_element_rejects_other_operands():
    x = RAT.gen
    for other in (0.5, "1", None):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            other * x
        with pytest.raises(TypeError):
            other - x
    # an element of another model is rejected even off the fast path
    with pytest.raises(FieldModelError):
        x + F9.one
    with pytest.raises(FieldModelError):
        F9.one * x


def test_rational_subtraction_protocol():
    x, y = RAT.el(Fraction(1, 3), 2), RAT.el(5, Fraction(-1, 2))
    assert x - y == x + (-y) == RAT.el(Fraction(-14, 3), Fraction(5, 2))
    assert x - 4 == RAT.el(Fraction(-11, 3), 2)
    assert 4 - x == RAT.el(Fraction(11, 3), -2)
    # an equal model from a separate call combines, on either side
    rat2 = make_extension({"kind": "rational", "tau": 2})
    z = rat2.el(1, 1)
    assert x - z == RAT.el(Fraction(-2, 3), 1)
    assert z - x == RAT.el(Fraction(2, 3), -1)
    rat3 = make_extension({"kind": "rational", "tau": 3})
    for other in (rat3.gen, F9.one):
        with pytest.raises(FieldModelError):
            x - other
        with pytest.raises(FieldModelError):
            other - x
    # any other operand is left to its own type, which refuses it
    assert x.__sub__(1.5) is NotImplemented
    assert x.__rsub__("a") is NotImplemented
    with pytest.raises(TypeError):
        x - 1.5
    with pytest.raises(TypeError):
        "a" - x


# -- the bracket products of one entry, against E-multiplication --------------

RAT32 = make_extension({"kind": "rational", "tau": "3/2"})
F16 = make_extension({"kind": "finite", "p": 2, "e": 2})


@st.composite
def bracket_entries(draw):
    model = draw(st.sampled_from([RAT, RAT32, F9, F16]))
    if model.kind == "rational":
        return model, RationalElement(model, (draw(payload_coords),
                                              draw(payload_coords)))
    return model, model.element_from_index(
        draw(st.integers(0, model.element_count() - 1)))


@given(bracket_entries())
def test_basis_products_equal_the_products_in_e(case):
    # the closed form over Q(sqrt(tau)) and the cached scalars over F_q both
    # give coords(c * v) for c in the prime basis, then for c in -sigma of it
    model, v = case
    basis = model.prime_basis()
    coords = model.prime_coords
    by_c, by_neg_sigma_c = model._basis_products(v)
    assert by_c == [coords(c * v) for c in basis]
    assert by_neg_sigma_c == [coords(-model.sigma(c) * v) for c in basis]
