"""Exact rational functions in the two formal variables q and T.

T stands for q^(-s); local zeta factors live here.  They are built,
multiplied, divided and compared in the factored form
``FactoredRationalFunction`` (a monomial times powers of 1 - q^-a T^b) and
rendered once to the canonical form ``BivariateRationalFunction``: coprime
integer polynomials num and den, stored as term maps
{(q_exp, T_exp): int}, with no common content and a positive leading
denominator coefficient in the lexicographic order q > T.  Only
``FactoredRationalFunction.to_ratfun`` and ``series_expand`` build the
canonical form; it is never parsed from an expression.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

Poly = dict  # {(q_exp, T_exp): nonzero int}


class NonUnitDenominator(ValueError):
    """Series expansion needs a denominator whose constant T-term is +-q^k."""


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out = {}
    for (qa, ta), ca in a.items():
        for (qb, tb), cb in b.items():
            key = (qa + qb, ta + tb)
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def _format(poly: Poly) -> str:
    """Terms in descending lex order on (T_exp, q_exp) as c*T**a*q**b,
    joined by + and -: the layout the tworb/1 reports have always used."""
    if not poly:
        return "0"
    out = []
    for q_exp, t_exp in sorted(poly, key=lambda k: (k[1], k[0]),
                               reverse=True):
        c = poly[(q_exp, t_exp)]
        mono = [f"{v}**{e}" if e > 1 else v
                for v, e in (("T", t_exp), ("q", q_exp)) if e]
        if abs(c) != 1 or not mono:
            mono.insert(0, str(abs(c)))
        term = "*".join(mono)
        if out:
            out.append((" - " if c < 0 else " + ") + term)
        else:
            out.append(("-" if c < 0 else "") + term)
    return "".join(out)


class BivariateRationalFunction:
    """Immutable exact rational function of (q, T) in canonical form.

    ``num`` and ``den`` must be coprime and content-free, with no zero
    terms; the constructor fixes the sign of the denominator's leading term.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den[max(den)] < 0:  # leading coefficient in lex order q > T
            num = {key: -c for key, c in num.items()}
            den = {key: -c for key, c in den.items()}
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("BivariateRationalFunction is immutable")

    def __eq__(self, other):
        if not isinstance(other, BivariateRationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __repr__(self):
        return f"({_format(self.num)})/({_format(self.den)})"

    def series_expand(self, order: int) -> list["BivariateRationalFunction"]:
        """Coefficients of T^0..T^order; each is a Laurent polynomial in q.

        With n_m, d_i the T^m, T^i coefficients of num and den,
        c_m = (n_m - sum_i d_i c_{m-i}) / d_0, exact because d_0 = +-q^k.
        """
        d0 = [(q_exp, c) for (q_exp, t_exp), c in self.den.items()
              if t_exp == 0]
        if len(d0) != 1 or abs(d0[0][1]) != 1:
            raise NonUnitDenominator(
                "constant T-term of the denominator is not +-q^k")
        (k, unit), = d0
        n_at, d_at = {}, {}
        for poly, at in ((self.num, n_at), (self.den, d_at)):
            for (q_exp, t_exp), c in poly.items():
                at.setdefault(t_exp, {})[q_exp] = c
        coeffs = []  # Laurent polynomials {q_exp: c}
        for m in range(order + 1):
            acc = dict(n_at.get(m, {}))
            for i in range(1, m + 1):
                for qa, ca in d_at.get(i, {}).items():
                    for qb, cb in coeffs[m - i].items():
                        acc[qa + qb] = acc.get(qa + qb, 0) - ca * cb
            coeffs.append({q_exp - k: unit * c
                           for q_exp, c in acc.items() if c})
        out = []
        for c in coeffs:
            shift = max(0, -min(c, default=0))
            out.append(BivariateRationalFunction(
                {(q_exp + shift, 0): v for q_exp, v in c.items()},
                {(shift, 0): 1}))
        return out

    def evaluate(self, q0, t0=None) -> Fraction:
        """Exact value at rational q0 (and T0 if T occurs)."""
        q0, t0 = Fraction(q0), None if t0 is None else Fraction(t0)

        def at(poly: Poly):
            return sum(c * q0**q_exp * (t0**t_exp if t_exp else 1)
                       for (q_exp, t_exp), c in poly.items())

        return Fraction(at(self.num)) / at(self.den)

    def to_json(self) -> dict:
        return {"num": _format(self.num), "den": _format(self.den)}


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d(x), lowest degree first: x^d - 1 divided exactly by the monic
    Phi_k(x), k | d, k < d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for k in range(1, d):
        if d % k:
            continue
        div = _cyclotomic(k)
        deg = len(div) - 1
        quot = [0] * (len(poly) - deg)
        for i in reversed(range(len(quot))):
            quot[i] = c = poly[i + deg]
            for j, dj in enumerate(div):
                poly[i + j] -= c * dj
        poly = quot
    return tuple(poly)


class FactoredRationalFunction:
    """Immutable q^a T^b prod (1 - q^-a' T^b')^m, for local factors.

    Stored as the monomial exponents (a, b) and a reduced dict
    {(a', b'): m} with a' >= 1, b' >= 0 and every m nonzero.  The factors
    1 - u^k are multiplicatively independent: for one primitive monomial u
    they are unitriangular in the cyclotomic factors Phi_d(u), and
    distinct primitive monomials give coprime Phi_d(u).  So this form is
    unique: products and quotients add and subtract exponents, and
    equality compares forms, exactly.
    """

    __slots__ = ("q_exp", "t_exp", "factors")

    def __init__(self, q_exp: int = 0, t_exp: int = 0, factors=None):
        reduced = {}
        for (a, b), m in (factors or {}).items():
            if a < 1 or b < 0:
                raise ValueError(f"factor 1 - q^-{a} T^{b} needs a >= 1, "
                                 "b >= 0")
            if m:
                reduced[(a, b)] = m
        object.__setattr__(self, "q_exp", q_exp)
        object.__setattr__(self, "t_exp", t_exp)
        object.__setattr__(self, "factors", reduced)

    def __setattr__(self, *a):
        raise AttributeError("FactoredRationalFunction is immutable")

    def _combine(self, other, sign: int) -> "FactoredRationalFunction":
        if not isinstance(other, FactoredRationalFunction):
            return NotImplemented
        factors = dict(self.factors)
        for key, m in other.factors.items():
            m = factors.get(key, 0) + sign * m
            if m:
                factors[key] = m
            else:
                del factors[key]
        return _reduced(self.q_exp + sign * other.q_exp,
                        self.t_exp + sign * other.t_exp, factors)

    def __mul__(self, other):
        return self._combine(other, 1)

    def __truediv__(self, other):
        return self._combine(other, -1)

    def __eq__(self, other):
        if not isinstance(other, FactoredRationalFunction):
            return NotImplemented
        return (self.q_exp == other.q_exp and self.t_exp == other.t_exp
                and self.factors == other.factors)

    __hash__ = None

    def __repr__(self):
        parts = [f"(1 - q^-{a} T^{b})^{m}"
                 for (a, b), m in sorted(self.factors.items())]
        return " * ".join([f"q^{self.q_exp} T^{self.t_exp}", *parts])

    def substitute_T(self, q_shift: int,
                     t_power: int) -> "FactoredRationalFunction":
        """Replace T by q^(-q_shift) * T^t_power; injective on factors."""
        if q_shift < 0 or t_power < 1:
            raise ValueError("need q_shift >= 0 and t_power >= 1")
        return _reduced(
            self.q_exp - q_shift * self.t_exp, t_power * self.t_exp,
            {(a + q_shift * b, t_power * b): m
             for (a, b), m in self.factors.items()})

    def to_ratfun(self) -> BivariateRationalFunction:
        """The canonical num/den form.

        With g = gcd(a, b) and u = q^-(a/g) T^(b/g), each factor
        1 - q^-a T^b = 1 - u^g splits into the Phi_d(u), d | g.  Distinct
        (u, d) give coprime polynomials, so cancelling exponents per (u, d)
        and expanding leaves num and den coprime.
        """
        pieces = {}
        for (a, b), m in self.factors.items():
            g = gcd(a, b)
            for d in range(1, g + 1):
                if g % d == 0:
                    key = (a // g, b // g, d)
                    pieces[key] = pieces.get(key, 0) + m
        num, den = {(0, 0): 1}, {(0, 0): 1}
        q_exp = self.q_exp
        for (alpha, beta, d), m in pieces.items():
            # Phi_1(u) = 1 - u, so that the Phi_d(u), d | g, give 1 - u^g
            coeffs = (1, -1) if d == 1 else _cyclotomic(d)
            deg = len(coeffs) - 1
            # q^(alpha deg) Phi_d(u) is a polynomial
            poly = {(alpha * (deg - i), beta * i): c
                    for i, c in enumerate(coeffs) if c}
            q_exp -= alpha * deg * m
            for _ in range(abs(m)):
                if m > 0:
                    num = _poly_mul(num, poly)
                else:
                    den = _poly_mul(den, poly)
        num = _poly_mul(num, {(max(q_exp, 0), max(self.t_exp, 0)): 1})
        den = _poly_mul(den, {(max(-q_exp, 0), max(-self.t_exp, 0)): 1})
        return BivariateRationalFunction(num, den)


def _reduced(q_exp: int, t_exp: int,
             factors: dict) -> FactoredRationalFunction:
    """A FactoredRationalFunction from a factor dict that is already reduced
    (a >= 1, b >= 0, no zero exponent), skipping the constructor's checks:
    products, quotients and T-substitutions of reduced forms build these."""
    out = object.__new__(FactoredRationalFunction)
    object.__setattr__(out, "q_exp", q_exp)
    object.__setattr__(out, "t_exp", t_exp)
    object.__setattr__(out, "factors", factors)
    return out
