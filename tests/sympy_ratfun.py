"""Reference oracle for ``tworb.ratfun``: the sympy canonical form.

``BivariateRationalFunction`` here is the sympy implementation that
``tworb.ratfun`` used before it rendered local factors from exponents
alone.  It accepts any sympy expression rational in (q, T), normalizes it
through ``sympy.cancel`` and prints through sympy, so the tests compare
``to_json()`` of the two implementations.  ``render`` is the old sympy
rendering of a ``FactoredRationalFunction``; ``from_json`` reads a
rendered form back into sympy.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

Q = sympy.Symbol("q")
T = sympy.Symbol("T")


class DivisionByZero(ZeroDivisionError):
    pass


class NonUnitDenominator(ValueError):
    """Series expansion needs a denominator with nonzero constant T-term."""


def _normalize(num: sympy.Expr, den: sympy.Expr):
    if den == 0:
        raise DivisionByZero("zero denominator")
    frac = sympy.cancel(sympy.together(sympy.sympify(num) / sympy.sympify(den)))
    n, d = sympy.fraction(frac)
    n, d = sympy.expand(n), sympy.expand(d)
    pn = sympy.Poly(n, Q, T, domain="QQ")
    pd = sympy.Poly(d, Q, T, domain="QQ")
    # clear rational content, then strip the shared integer content
    mult = sympy.lcm([c.q for c in pn.coeffs()] + [c.q for c in pd.coeffs()])
    pn, pd = pn * mult, pd * mult
    g = sympy.gcd(sympy.gcd(list(pn.coeffs())), sympy.gcd(list(pd.coeffs())))
    if g != 0:
        pn, pd = pn.quo_ground(g), pd.quo_ground(g)
    if pd.LC() < 0:  # leading coefficient in lex order q > T
        pn, pd = -pn, -pd
    return pn.as_expr(), pd.as_expr()


class BivariateRationalFunction:
    """Immutable exact rational function of (q, T)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        n, d = _normalize(num, den)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, *a):
        raise AttributeError("BivariateRationalFunction is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, m: int) -> "BivariateRationalFunction":
        return cls(m, 1)

    @classmethod
    def monomial(cls, q_exp: int, t_exp: int) -> "BivariateRationalFunction":
        """q^q_exp * T^t_exp; q_exp may be negative."""
        if t_exp < 0:
            raise ValueError("negative T exponent not used here")
        if q_exp >= 0:
            return cls(Q**q_exp * T**t_exp, 1)
        return cls(T**t_exp, Q ** (-q_exp))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, BivariateRationalFunction):
            return other
        if isinstance(other, int):
            return BivariateRationalFunction(other, 1)
        return NotImplemented

    def add(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return BivariateRationalFunction(
            self.num * o.den + o.num * self.den, self.den * o.den)

    def mul(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return BivariateRationalFunction(self.num * o.num, self.den * o.den)

    def div(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.num == 0:
            raise DivisionByZero("division by the zero rational function")
        return BivariateRationalFunction(self.num * o.den, self.den * o.num)

    def sub(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return BivariateRationalFunction(
            self.num * o.den - o.num * self.den, self.den * o.den)

    __add__ = add
    __radd__ = add
    __mul__ = mul
    __rmul__ = mul
    __sub__ = sub
    __truediv__ = div

    def __rsub__(self, other):
        o = self._coerce(other)
        return o.sub(self)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o.div(self)

    def __neg__(self):
        return BivariateRationalFunction(-self.num, self.den)

    def __pow__(self, k: int):
        if k < 0:
            return BivariateRationalFunction(self.den**-k, self.num**-k)
        return BivariateRationalFunction(self.num**k, self.den**k)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return sympy.expand(self.num * o.den - o.num * self.den) == 0

    __hash__ = None

    def is_zero(self) -> bool:
        return self.num == 0

    def is_one(self) -> bool:
        return sympy.expand(self.num - self.den) == 0

    def __repr__(self):
        return f"({self.num})/({self.den})"

    # -- substitution, series, evaluation -------------------------------------

    def substitute_T(self, q_shift: int, t_power: int) -> "BivariateRationalFunction":
        """Replace T by q^(-q_shift) * T^t_power; injective on factors."""
        repl = Q ** (-q_shift) * T**t_power
        return BivariateRationalFunction(self.num.subs(T, repl),
                                         self.den.subs(T, repl))

    def series_expand(self, order: int) -> list["BivariateRationalFunction"]:
        """Coefficients of T^0..T^order; each is a rational function of q alone."""
        pn = sympy.Poly(self.num, T)
        pd = sympy.Poly(self.den, T)
        d = {k: c for (k,), c in pd.terms()}
        n = {k: c for (k,), c in pn.terms()}
        d0 = d.get(0, sympy.Integer(0))
        if d0 == 0:
            raise NonUnitDenominator(
                "denominator has zero constant term in T")
        coeffs = []
        for m in range(order + 1):
            acc = n.get(m, sympy.Integer(0))
            for i in range(1, m + 1):
                di = d.get(i)
                if di is not None:
                    acc = acc - di * coeffs[m - i]._q_expr()
            coeffs.append(BivariateRationalFunction(acc, d0))
        return coeffs

    def _q_expr(self) -> sympy.Expr:
        return self.num / self.den

    def evaluate(self, q0, t0=None) -> Fraction:
        """Exact value at rational q0 (and T0 if T occurs)."""
        subs = {Q: sympy.Rational(Fraction(q0))}
        if t0 is not None:
            subs[T] = sympy.Rational(Fraction(t0))
        dval = self.den.subs(subs)
        if dval == 0:
            raise DivisionByZero("denominator vanishes at the sample point")
        val = sympy.Rational(self.num.subs(subs), dval)
        return Fraction(int(val.p), int(val.q))

    def to_json(self) -> dict:
        return {"num": str(self.num), "den": str(self.den)}


ONE = BivariateRationalFunction(1, 1)


def render(form) -> BivariateRationalFunction:
    """A ``FactoredRationalFunction`` rendered through sympy."""
    num = den = sympy.Integer(1)
    q_exp = form.q_exp
    for (a, b), m in form.factors.items():
        # 1 - q^-a T^b = (q^a - T^b) / q^a
        q_exp -= a * m
        if m > 0:
            num *= (Q**a - T**b) ** m
        else:
            den *= (Q**a - T**b) ** -m
    num *= Q ** max(q_exp, 0) * T ** max(form.t_exp, 0)
    den *= Q ** max(-q_exp, 0) * T ** max(-form.t_exp, 0)
    return BivariateRationalFunction(num, den)


def from_json(data: dict) -> BivariateRationalFunction:
    """Parse a ``to_json()`` dict of either implementation."""
    symbols = {"q": Q, "T": T}
    return BivariateRationalFunction(sympy.sympify(data["num"], symbols),
                                     sympy.sympify(data["den"], symbols))
