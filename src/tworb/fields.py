"""Exact arithmetic in a quadratic extension E/F with its Galois involution.

Two desk-scale models are provided:

* ``rational``: F = Q, E = Q(sqrt(tau)) for a non-square rational tau.
  Elements are stored as pairs (a, b) meaning a + b*sqrt(tau); each of a,
  b (and tau itself) is stored as an ``int`` when it is integral and as a
  :class:`fractions.Fraction` only when it is not, so elements of
  Z[sqrt(tau)] compute in plain integers.  The two types mix exactly and
  agree under ``==`` and ``hash``.  The involution sends b to -b.
* ``finite``: F = F_q with q = p^e, E = F_{q^2}.  E is realised as
  F_p[x]/(mu) for a fixed irreducible mu of degree 2e, elements are
  coefficient tuples over F_p, and the involution is the relative
  Frobenius x -> x^q.

All arithmetic is exact; no floating point is used anywhere.  Elements
are immutable and safe to share between parallel workers.
"""

from __future__ import annotations

import math
from fractions import Fraction


class FieldModelError(ValueError):
    """Malformed field descriptor or invalid element operation."""


class RadicandIsSquare(FieldModelError):
    """The rational model needs a non-square radicand."""


class NotPrime(FieldModelError):
    """The finite model needs a prime characteristic."""


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _rat(x) -> int | Fraction:
    """A rational value as an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _fraction_is_square(t: Fraction) -> bool:
    if t < 0:
        return False
    num, den = t.numerator, t.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    return rn * rn == num and rd * rd == den


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, lowest degree first)


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        a = _poly_trim(a)
        if len(a) - 1 < dm:
            break
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - coef * mi) % p
        a = _poly_trim(a)
    return a


def _poly_powmod(a: list[int], k: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a, m, p)
    while k:
        if k & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        k >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_is_irreducible(m: list[int], p: int) -> bool:
    # Rabin test: x^(p^d) == x mod m, and x^(p^(d/l)) - x coprime to m
    # for every prime l dividing d.
    d = len(m) - 1
    x = [0, 1]
    if _poly_trim(list(_poly_powmod(x, p**d, m, p))) != _poly_mod(x, m, p):
        return False
    for ell in _prime_factors(d):
        xp = _poly_powmod(x, p ** (d // ell), m, p)
        diff = [(xi - yi) % p for xi, yi in _zip_pad(xp, x)]
        g = _poly_gcd(diff, m, p)
        if len(g) - 1 > 0:
            return False
    return True


def _prime_factors(d: int) -> list[int]:
    out = []
    f = 2
    while f * f <= d:
        if d % f == 0:
            out.append(f)
            while d % f == 0:
                d //= f
        f += 1
    if d > 1:
        out.append(d)
    return out


def _zip_pad(a: list[int], b: list[int]):
    la, lb = len(a), len(b)
    n = max(la, lb)
    for i in range(n):
        yield (a[i] if i < la else 0), (b[i] if i < lb else 0)


def _find_irreducible(degree: int, p: int) -> list[int]:
    # Deterministic scan over monic polynomials in base-p counting order.
    for tail in range(p**degree):
        coeffs = []
        t = tail
        for _ in range(degree):
            coeffs.append(t % p)
            t //= p
        m = coeffs + [1]
        if m[0] != 0 and _poly_is_irreducible(m, p):
            return m
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


# ---------------------------------------------------------------------------


class ExtElement:
    """An element of E.  Immutable; arithmetic is delegated to its model.

    Payload is (a, b) for the rational model (a + b*sqrt(tau)), each an
    int or a non-integral Fraction, and a coefficient tuple over F_p for
    the finite model.  Operands from two different models raise
    FieldModelError, in arithmetic and in ``==`` alike.
    """

    __slots__ = ("model", "payload")

    def __init__(self, model: "QuadraticExtensionModel", payload):
        self.model = model
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, ExtElement):
            if other.model is not self.model and other.model != self.model:
                raise FieldModelError(
                    f"mixed field models: {self.model!r} and {other.model!r}")
            return other
        if isinstance(other, int):
            return self.model.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtElement(self.model, self.model._add(self.payload, o.payload))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtElement(self.model, self.model._sub(self.payload, o.payload))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtElement(self.model, self.model._sub(o.payload, self.payload))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtElement(self.model, self.model._mul(self.payload, o.payload))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __neg__(self):
        return ExtElement(self.model, self.model._neg(self.payload))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.payload == o.payload

    def __hash__(self):
        return hash(self.payload)

    def __bool__(self):
        return not self.model._is_zero(self.payload)

    def inverse(self) -> "ExtElement":
        return ExtElement(self.model, self.model._inv(self.payload))

    def __repr__(self):
        return f"ExtElement({self.model._format(self.payload)})"


class QuadraticExtensionModel:
    """A concrete quadratic extension E/F together with its involution.

    Use :func:`make_extension` to construct one; the constructor trusts
    its arguments.
    """

    def __init__(self, kind: str, *, tau: int | Fraction | None = None,
                 p: int | None = None, e: int | None = None):
        self.kind = kind
        if kind == "rational":
            self.tau = tau
        else:
            self.p = p
            self.e = e
            self.q = p**e
            deg = 2 * e
            self.degree = deg
            self.modulus = _find_irreducible(deg, p)
            # reduction of x^deg .. x^(2*deg-2), used by multiplication
            self._red = []
            cur = _poly_mod([0] * deg + [1], self.modulus, p)
            for _ in range(deg - 1):
                self._red.append(self._pad(cur))
                cur = _poly_mod(_poly_mul(cur, [0, 1], p), self.modulus, p)
            # the involution x -> x^q is F_p-linear; tabulate it on monomials
            s = _poly_powmod([0, 1], self.q, self.modulus, p)
            self._sigma_rows = []
            cur = [1]
            for _ in range(deg):
                self._sigma_rows.append(self._pad(cur))
                cur = _poly_mod(_poly_mul(cur, s, p), self.modulus, p)

    # -- descriptors and constructors -------------------------------------

    def descriptor(self) -> dict:
        if self.kind == "rational":
            tau = self.tau
            return {"kind": "rational",
                    "tau": int(tau) if tau.denominator == 1 else str(tau)}
        return {"kind": "finite", "p": self.p, "e": self.e}

    def __eq__(self, other):
        return (isinstance(other, QuadraticExtensionModel)
                and self.descriptor() == other.descriptor())

    def __hash__(self):
        return hash(str(self.descriptor()))

    def __repr__(self):
        if self.kind == "rational":
            return f"QuadraticExtensionModel(Q(sqrt({self.tau})))"
        return f"QuadraticExtensionModel(F_{self.q**2}/F_{self.q})"

    def _pad(self, coeffs: list[int]) -> tuple[int, ...]:
        return tuple(coeffs) + (0,) * (self.degree - len(coeffs))

    def from_int(self, m: int) -> ExtElement:
        if self.kind == "rational":
            return ExtElement(self, (_rat(m), 0))
        return ExtElement(self, self._pad([m % self.p]))

    def el(self, a, b=0) -> ExtElement:
        """a + b*gen, with a and b base-field rationals (rational kind only)."""
        if self.kind != "rational":
            raise FieldModelError("el(a, b) is for the rational model")
        return ExtElement(self, (_rat(a), _rat(b)))

    def from_coeffs(self, coeffs) -> ExtElement:
        if self.kind != "finite":
            raise FieldModelError("from_coeffs is for the finite model")
        c = [ci % self.p for ci in coeffs]
        if len(c) > self.degree:
            raise FieldModelError("too many coefficients")
        return ExtElement(self, self._pad(c))

    @property
    def zero(self) -> ExtElement:
        return self.from_int(0)

    @property
    def one(self) -> ExtElement:
        return self.from_int(1)

    @property
    def gen(self) -> ExtElement:
        """A generator of E over F: sqrt(tau), or the class of x."""
        if self.kind == "rational":
            return ExtElement(self, (0, 1))
        return ExtElement(self, self._pad([0, 1]))

    # -- raw payload arithmetic -------------------------------------------

    def _add(self, x, y):
        if self.kind == "rational":
            return (x[0] + y[0], x[1] + y[1])
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def _sub(self, x, y):
        if self.kind == "rational":
            return (x[0] - y[0], x[1] - y[1])
        p = self.p
        return tuple((a - b) % p for a, b in zip(x, y))

    def _neg(self, x):
        if self.kind == "rational":
            return (-x[0], -x[1])
        p = self.p
        return tuple((-a) % p for a in x)

    def _mul(self, x, y):
        if self.kind == "rational":
            a, b = x
            c, d = y
            t = self.tau
            return (a * c + t * b * d, a * d + b * c)
        p = self.p
        deg = self.degree
        prod = [0] * (2 * deg - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        prod[i + j] = (prod[i + j] + xi * yj) % p
        out = list(prod[:deg])
        for k in range(deg, 2 * deg - 1):
            c = prod[k]
            if c:
                row = self._red[k - deg]
                for t_i in range(deg):
                    out[t_i] = (out[t_i] + c * row[t_i]) % p
        return tuple(out)

    def _is_zero(self, x) -> bool:
        if self.kind == "rational":
            return x[0] == 0 and x[1] == 0
        return all(c == 0 for c in x)

    def _inv(self, x):
        if self._is_zero(x):
            raise ZeroDivisionError("inverse of zero in E")
        if self.kind == "rational":
            a, b = x
            nrm = a * a - self.tau * b * b
            return (_rat(Fraction(a, nrm)), _rat(Fraction(-b, nrm)))
        # extended Euclid in F_p[x] against the modulus
        p = self.p
        r0, r1 = list(self.modulus), _poly_trim(list(x))
        s0, s1 = [], [1]
        while r1:
            # divide r0 by r1
            q_poly = []
            rem = list(r0)
            inv_lead = pow(r1[-1], -1, p)
            while len(rem) >= len(r1) and _poly_trim(rem):
                rem = _poly_trim(rem)
                if len(rem) < len(r1):
                    break
                coef = (rem[-1] * inv_lead) % p
                shift = len(rem) - len(r1)
                q_poly += [0] * max(0, shift + 1 - len(q_poly))
                q_poly[shift] = coef
                for i, ci in enumerate(r1):
                    rem[shift + i] = (rem[shift + i] - coef * ci) % p
                rem = _poly_trim(rem)
            r0, r1 = r1, rem
            qs = _poly_mul(q_poly, s1, p)
            new_s = [(a - b) % p for a, b in _zip_pad(s0, qs)]
            s0, s1 = s1, _poly_trim(new_s)
        # gcd must be a unit since the modulus is irreducible
        assert len(r0) == 1
        c = pow(r0[0], -1, p)
        return self._pad([(c * si) % p for si in s0])

    def _format(self, x) -> str:
        if self.kind == "rational":
            return f"{x[0]}+{x[1]}*sqrt({self.tau})"
        return str(list(x))

    # -- involution, norm, base field -------------------------------------

    def sigma(self, x: ExtElement) -> ExtElement:
        if self.kind == "rational":
            a, b = x.payload
            return ExtElement(self, (a, -b))
        out = [0] * self.degree
        p = self.p
        for i, ci in enumerate(x.payload):
            if ci:
                row = self._sigma_rows[i]
                for t_i in range(self.degree):
                    out[t_i] = (out[t_i] + ci * row[t_i]) % p
        return ExtElement(self, tuple(out))

    def norm(self, x: ExtElement) -> ExtElement:
        """x * sigma(x); always lands in the base field."""
        return x * self.sigma(x)

    def in_base_field(self, x: ExtElement) -> bool:
        return self.sigma(x) == x

    # -- coordinates used by the exact linear algebra ----------------------

    def prime_basis(self) -> list[ExtElement]:
        """Basis of E over Q (rational) or over F_p (finite).

        All linear-algebra flattening happens relative to this basis; for
        the finite model, dimensions over F_q are recovered by dividing
        prime-field dimensions by e (see linalg.FLinearSystem).
        """
        if self.kind == "rational":
            return [self.one, self.gen]
        basis = []
        for i in range(self.degree):
            c = [0] * self.degree
            c[i] = 1
            basis.append(ExtElement(self, tuple(c)))
        return basis

    def prime_coords(self, x: ExtElement):
        """(a, b) of ints/Fractions, or a coefficient tuple over F_p."""
        return x.payload

    @property
    def prime_dim_per_e_dim(self) -> int:
        return 2 if self.kind == "rational" else self.degree

    @property
    def subfield_degree(self) -> int:
        """[F : prime field]; the single conversion factor for F-dimensions."""
        return 1 if self.kind == "rational" else self.e

    # -- element enumeration (finite model) --------------------------------

    def element_count(self) -> int:
        if self.kind != "finite":
            raise FieldModelError("infinite field")
        return self.p**self.degree

    def element_from_index(self, idx: int) -> ExtElement:
        if self.kind != "finite":
            raise FieldModelError("indexing needs the finite model")
        coeffs = []
        for _ in range(self.degree):
            coeffs.append(idx % self.p)
            idx //= self.p
        return ExtElement(self, tuple(coeffs))

    def element_index(self, x: ExtElement) -> int:
        idx = 0
        for c in reversed(x.payload):
            idx = idx * self.p + c
        return idx

    def elements(self):
        for i in range(self.element_count()):
            yield self.element_from_index(i)

    def random_element(self, rng) -> ExtElement:
        if self.kind != "finite":
            raise FieldModelError("uniform sampling needs the finite model")
        return self.element_from_index(rng.randrange(self.element_count()))

    # -- JSON wire format ---------------------------------------------------

    def element_to_json(self, x: ExtElement):
        if self.kind == "rational":
            a, b = x.payload
            return {"a": str(a) if a.denominator != 1 else a.numerator,
                    "b": str(b) if b.denominator != 1 else b.numerator}
        return self.element_index(x)

    def element_from_json(self, data) -> ExtElement:
        if self.kind == "rational":
            return self.el(Fraction(str(data["a"])), Fraction(str(data["b"])))
        return self.element_from_index(int(data))


def make_extension(spec) -> QuadraticExtensionModel:
    """Build a model from a descriptor.

    ``spec`` is a dict like {"kind": "rational", "tau": 2} or
    {"kind": "finite", "p": 3, "e": 1}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise FieldModelError(f"bad field descriptor: {spec!r}")
    kind = spec["kind"]
    if kind == "rational":
        tau = _rat(str(spec.get("tau", 2)))
        if _fraction_is_square(tau):
            raise RadicandIsSquare(f"tau={tau} is a square in Q")
        return QuadraticExtensionModel("rational", tau=tau)
    if kind == "finite":
        p = int(spec["p"])
        e = int(spec.get("e", 1))
        if not _is_prime(p):
            raise NotPrime(f"p={p} is not prime")
        if e < 1:
            raise FieldModelError(f"e={e} must be >= 1")
        return QuadraticExtensionModel("finite", p=p, e=e)
    raise FieldModelError(f"unknown kind {kind!r}")


def sigma(x: ExtElement) -> ExtElement:
    return x.model.sigma(x)


def norm(x: ExtElement) -> ExtElement:
    return x.model.norm(x)
