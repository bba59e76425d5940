"""Sigma-linear endomorphisms of E^n and exact F-linear solving.

Convention, used everywhere in this package: a sigma-linear map is stored
as an n x n matrix Y over E acting by v -> Y * sigma(v), with sigma applied
entrywise to v.  Under this convention the k-th power of the map is the
alternating product Y * sigma(Y) * Y * ... with k factors, and the
differentiated twisted action of Z in gl_n(E) is Z*Y - Y*sigma(Z).
twisted_power multiplies it out on the right, P_(k+1) = P_k *
sigma^k(Y): each new factor is Y or sigma(Y), and the left factor is the
power itself, whose zero entries, more as the powers fall, mat_mul skips.
The right factor's zeros are still multiplied, and P_1 is still the
product Y * sigma(I), because the benchmark's tracer pins the products
and element operations of a twisted power.  Over Q(sqrt(tau)) those
operations are cheap: sigma returns its fixed entries, a product with
0 or 1 and a sum with 0 return an operand (see fields.RationalElement),
so P_1 builds no element at all.  The powers are memoized on the map and
end at the first zero one; is_nilpotent scans that zero power once, and
orbits.jordan_type_of ranks only the nonzero powers before it, read
through _nonzero_powers.

All F-linear questions (centralizers, brackets, ranks) are answered by
flattening E-coordinates over the prime field: over Q(sqrt(tau)) in the
basis (1, sqrt(tau)), and over F_p in the monomial basis of E = F_p[x]/(mu).
For the finite model an F_q-dimension is the prime-field dimension divided
by e; FLinearSystem owns that single conversion point.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from .fields import ExtElement, QuadraticExtensionModel


class NotNilpotent(ValueError):
    pass


Matrix = tuple  # tuple of tuples of ExtElement


# ---------------------------------------------------------------------------
# matrices over E


def mat_from_rows(model: QuadraticExtensionModel, rows) -> Matrix:
    out = []
    for row in rows:
        r = []
        for entry in row:
            if isinstance(entry, ExtElement):
                r.append(entry)
            elif isinstance(entry, int):
                r.append(model.from_int(entry))
            else:
                r.append(model.el(*entry))
        out.append(tuple(r))
    return tuple(out)


def mat_identity(model, n: int) -> Matrix:
    """The n x n identity, built once per model and size and kept on the
    model."""
    ident = model._identities.get(n)
    if ident is None:
        z, o = model.zero, model.one
        ident = model._identities[n] = tuple(
            tuple(o if i == j else z for j in range(n)) for i in range(n))
    return ident


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a * b, skipping the zero entries of each row of a.

    A row's nonzero entries are collected once; each output entry is the
    first of their products plus the others, so a dense a still costs
    n^3 E-multiplications and n^2 (n-1) E-additions.  An all-zero row of
    a yields a row of its own zero entries.
    """
    m = len(b[0])
    out = []
    for ai in a:
        terms = [(x, b[t]) for t, x in enumerate(ai) if x]
        if not terms:
            out.append((ai[0],) * m)
            continue
        (x0, b0), rest = terms[0], terms[1:]
        row = []
        for j in range(m):
            acc = x0 * b0[j]
            for x, bt in rest:
                acc = acc + x * bt[j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_sigma(model, a: Matrix) -> Matrix:
    s = model.sigma
    return tuple([tuple([s(x) for x in row]) for row in a])


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_zero(a: Matrix) -> bool:
    return not any(map(any, a))


def mat_rank(a: Matrix) -> int:
    """Rank over E, by division-free elimination (see _rank) of the
    nonzero rows of ``a``.

    Over the domain Z[sqrt(tau)] the entries stay ints, and its rank
    equals the rank over the fraction field E.  All-zero rows, such as
    the bottom rows of a power of a strictly upper triangular map, are
    dropped first: they never pivot, and without them the elimination
    stops as soon as every row holds a pivot.
    """
    return len(_rank([list(r) for r in a if any(r)]))


# ---------------------------------------------------------------------------
# twisted endomorphisms


@dataclass(frozen=True)
class TwistedEndo:
    """The sigma-linear map v -> Y * sigma(v) on E^n.

    ``_powers`` holds the twisted powers P_0, P_1, ... made so far (read
    them through twisted_power, or _nonzero_powers after is_nilpotent); it
    takes no part in ==, hash or dataclasses.replace.
    """

    model: QuadraticExtensionModel
    n: int
    mat: Matrix
    _powers: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def from_rows(cls, model, rows) -> "TwistedEndo":
        m = mat_from_rows(model, rows)
        if any(len(r) != len(m) for r in m):
            raise ValueError("matrix must be square")
        return cls(model, len(m), m)


_PUBLISH = threading.Lock()  # serializes twisted_power's memo updates


def twisted_power(y: TwistedEndo, k: int) -> Matrix:
    """Matrix of the k-th power: the alternating product with k factors.

    P_1 = Y * sigma(I), and P_(k+1) = P_k * sigma^k(Y) for k >= 1, as
    Y^k(Y sigma(v)) = P_k sigma^k(Y) sigma^(k+1)(v): the factor is Y for
    even k and sigma(Y), made at most once per call, for odd k.  By
    associativity these are the alternating products.

    P_1 stays a product rather than Y itself, because the benchmark's
    tracer pins it.  Over Q(sqrt(tau)) it costs no allocation: sigma(I)
    has I's own entries, and each product with its zeros and ones, like
    each sum with a zero product, returns an operand, so P_1 is built
    from Y's entries.  The later products do the same for the zeros of
    the right factor.

    The powers are memoized on ``y``: a call makes only the products no
    earlier call made, and none past the first zero power, which every
    later power equals.  So every memoized power but the last is
    nonzero, and a memo that stops short of P_k after this call ends at
    a zero power, which the loop has scanned (is_nilpotent relies on
    both).  The powers a call made are published as one longer tuple,
    under a lock and only if the memo is still shorter, so the memo never
    shrinks, and callers sharing ``y`` can at worst make a product twice.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    model = y.model
    powers = known = y._powers or (mat_identity(model, y.n),)
    sigma_y = None
    while len(powers) <= k and not mat_is_zero(powers[-1]):
        if len(powers) == 1:
            new = mat_mul(y.mat, mat_sigma(model, powers[0]))
        elif len(powers) % 2:
            new = mat_mul(powers[-1], y.mat)
        else:
            if sigma_y is None:
                sigma_y = mat_sigma(model, y.mat)
            new = mat_mul(powers[-1], sigma_y)
        powers += (new,)
    if len(powers) > len(known):
        with _PUBLISH:
            if len(powers) > len(y._powers):
                object.__setattr__(y, "_powers", powers)
    return powers[min(k, len(powers) - 1)]


def _nonzero_powers(y: TwistedEndo) -> tuple:
    """P_1, ..., P_(r-1): the twisted powers of ``y`` that is_nilpotent(y)
    made, less P_r, the first zero one.

    Read only after is_nilpotent(y) has held: its twisted_power(y, n)
    left the memo ending at P_r, and no later call can shrink or extend
    it.
    """
    return y._powers[1:-1]


def is_nilpotent(y: TwistedEndo) -> bool:
    """True iff the n-th twisted power vanishes.

    The images of the powers of a sigma-semilinear map are E-subspaces,
    each inside the one before; once two consecutive images agree, all
    later ones do.  So the dimensions fall strictly until they settle,
    which happens by power n, and a nilpotent map vanishes by power n.

    Before any power, the trace of N = Y sigma(Y) is tested:
    sum_i Y_ii sigma(Y_ii) + sum_(i<j) (Y_ij sigma(Y_ji) + Y_ji sigma(Y_ij)),
    skipping every pair with a zero entry; the lower entry Y_ji is tested
    first, so a strictly upper triangular map, such as every induction
    sample, costs one zero test per pair.  N is E-linear and N^k = P_2k,
    so a nilpotent Y has a nilpotent N, whose trace is 0: a nonzero trace
    proves Y is not nilpotent, and only a zero one goes on to the powers.
    tr N is fixed by sigma, so it lies in F, and a random map is rejected
    here with probability about 1 - 1/q.

    The final power is scanned once.  twisted_power(y, n) makes no power
    past a zero one and scans each power it extends from, so a memo that
    stops short of P_n ends at a zero power it has already seen; only a
    P_n that it made or found is scanned here.
    """
    mat, n, sigma = y.mat, y.n, y.model.sigma
    terms = []
    for i, row in enumerate(mat):
        if row[i]:
            terms.append(row[i] * sigma(row[i]))
        for j in range(i + 1, n):
            b = mat[j][i]  # zero in every strictly upper triangular map
            if b:
                a = row[j]
                if a:
                    terms += (a * sigma(b), b * sigma(a))
    if terms and sum(terms[1:], terms[0]):
        return False
    p = twisted_power(y, n)
    return len(y._powers) <= n or mat_is_zero(p)


# ---------------------------------------------------------------------------
# exact rank / kernel over the base field


def _rank(rows: list[list], reduce=None, ncols=None) -> list[int]:
    """Pivot columns of a matrix over a domain, by division-free
    elimination; their number is the rank.

    Columns are taken left to right, so the pivot columns are the greedy
    basis among the columns: each is outside the span of those before
    it.  Eliminates in place, so ``rows`` is consumed.  Only rows with a
    nonzero entry in the pivot column change: each becomes
    piv * row - f * pivot_row on the columns right of the pivot, passed
    through ``reduce`` when one is given.  No inverse is taken, and
    entries left of the pivot column are never read again.  A row that
    is never updated keeps its entries as given.  Pivots are sought in
    the first ``ncols`` columns only (all by default); any columns after
    them are carried along by the same row operations.
    """
    nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if nrows else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        for i in range(rank, nrows):
            if rows[i][col]:
                break
        else:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pval = rows[rank][col]
        tail = rows[rank][col + 1:]
        for ri in rows[rank + 1:]:
            f = ri[col]
            if f:
                new = [pval * x - f * y for x, y in zip(ri[col + 1:], tail)]
                ri[col + 1:] = new if reduce is None else reduce(new)
        pivots.append(col)
        if rank + 1 == nrows:
            break
    return pivots


def _primitive(row: list) -> list[int]:
    """The primitive integer row on the ray of a row over Q: its
    denominators cleared, when it holds a Fraction, and its gcd content
    divided out.  Both multipliers are positive, and a zero row comes
    back as zeros.  An all-int row costs one gcd, with no type test:
    math.gcd raises TypeError on a Fraction."""
    try:
        g = math.gcd(*row)
    except TypeError:
        mult = math.lcm(*(x.denominator for x in row))
        row = [int(x * mult) for x in row]
        g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _pivot_columns(rows: list[list], p: int, ncols=None) -> list[int]:
    """Pivot columns over Q (p = 0) or F_p of a matrix over the prime
    field, by _rank, consuming ``rows``.

    Over Q the rows enter as they are, ints or Fractions, and each
    updated row is made _primitive, so the entries stay small and are
    ints from its first update on.  Over F_p every row is reduced mod p
    first, and each updated row again.  ``ncols`` is _rank's.
    """
    if p:
        def reduce(row):
            return [x % p for x in row]

        rows[:] = map(reduce, rows)
    else:
        reduce = _primitive
    return _rank(rows, reduce, ncols)


def _left_kernel(rows: list[list], p: int) -> tuple[int, list[list[int]]]:
    """Rank of a matrix over Q (p = 0) or F_p, and a basis of the
    coefficient vectors c with sum_i c_i * rows[i] = 0.

    One _pivot_columns pass over [rows | I] that seeks pivots among the
    columns of ``rows`` only.  Each step is an invertible row operation,
    so every row stays the combination, given by its identity part, of
    the rows of [rows | I]; the rows from the rank on are zero left of
    the identity part, so their identity parts are rows - rank
    independent kernel vectors.  Each of those rows was updated at least
    once, or its nonzero entry would have pivoted, unless it is a zero
    row of ``rows``, whose identity part stays its unit vector.  So over
    Q every kernel vector is already a primitive integer vector, with no
    Fraction left to clear.
    """
    ncols = len(rows[0]) if rows else 0
    aug = []
    for i, r in enumerate(rows):
        unit = [0] * len(rows)
        unit[i] = 1
        aug.append([*r, *unit])
    rank = len(_pivot_columns(aug, p, ncols))
    return rank, [r[ncols:] for r in aug[rank:]]


@dataclass(frozen=True)
class FLinearSystem:
    """An F-linear map, flattened to a matrix over the prime field.

    ``rows`` are the images of the domain's prime basis, one row each, in
    prime coordinates of the codomain: over Q each entry is an int or a
    Fraction, over F_p each is an int.  The rank is taken on the
    transpose without its all-zero rows, by _pivot_columns.  Stated
    dimensions are F-dimensions; for the finite model they equal
    prime-field dimensions divided by subfield_degree.  ``_basis`` keeps
    basis_rows once made; it takes no part in ==, hash or
    dataclasses.replace.
    """

    rows: tuple
    char: int  # 0 for Q, p for the finite model
    subfield_degree: int = 1
    _basis: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def basis_rows(self) -> tuple[int, ...]:
        """Indices of the greedy prime-field basis among ``rows``: each
        row outside the span of the rows before it.

        They are the pivot columns of the transpose, so there are as many
        as the prime-field rank.  Dropping the transpose's all-zero rows,
        such as the codomain coordinates that no image reaches, changes
        neither.  One elimination per system: rank_F reads them too.
        """
        if self._basis is None:
            rows = [list(c) for c in zip(*self.rows) if any(c)]
            object.__setattr__(self, "_basis",
                               tuple(_pivot_columns(rows, self.char)))
        return self._basis

    def _to_F(self, dim: int) -> int:
        """A prime-field dimension as an F-dimension."""
        e = self.subfield_degree
        if dim % e:
            raise ValueError(f"not F-linear: {dim} not a multiple of e={e}")
        return dim // e

    def rank_F(self) -> int:
        return self._to_F(len(self.basis_rows()))

    def rank_and_kernel(self) -> tuple[int, list[tuple]]:
        """rank_F and a prime-field basis of the kernel, from one elimination.

        A kernel vector is the tuple of its nonzero (row, coefficient)
        pairs: the rows it weights sum to zero.  A zero row is a kernel
        vector on its own; the other rows go to _left_kernel.
        """
        live = [i for i, r in enumerate(self.rows) if any(r)]
        rank, kernel = _left_kernel([self.rows[i] for i in live], self.char)
        zero = sorted(set(range(len(self.rows))).difference(live))
        return self._to_F(rank), [((i, 1),) for i in zero] + [
            tuple((live[k], c) for k, c in enumerate(vec) if c)
            for vec in kernel]

    def kernel_dim_F(self) -> int:
        return self._to_F(len(self.rows)) - self.rank_F()


# ---------------------------------------------------------------------------
# flattening maps on matrix subspaces


def bracket_system(y: TwistedEndo, domain_positions=None,
                   codomain_positions=None) -> FLinearSystem:
    """The flattened map Z -> Z*Y - Y*sigma(Z) between spans of positions.

    Domain basis: c * E_ab for each domain position (a, b) and each
    prime-basis scalar c; each gives one row, the prime coordinates of its
    image at the codomain positions, in order (both spans default to every
    position, row-major).  On c * E_ab the bracket is closed form: row a
    receives c * (row b of Y) and column b receives -sigma(c) * (column a
    of Y).  One call of the model's _basis_products per nonzero entry of Y
    gives the coordinates of both products for every c (in closed form
    over Q(sqrt(tau)), by E-multiplication with scalars built once per
    model over F_q), and every row copies those that land in the codomain.
    The one entry that can receive both terms, (a, b) when Y[b][b] and
    Y[a][a] are nonzero, is summed in E first.  The rows equal those of
    a generic flattener over the products Z*Y - Y*sigma(Z) (tested).
    """
    model, n = y.model, y.n
    if domain_positions is None or codomain_positions is None:
        everything = [(i, j) for i in range(n) for j in range(n)]
        if domain_positions is None:
            domain_positions = everything
        if codomain_positions is None:
            codomain_positions = everything
    products = model._basis_products
    per = model.prime_dim_per_e_dim
    w = y.mat
    # first[i][j]: the first column of codomain position (i, j), else None
    first = [[None] * n for _ in range(n)]
    for k, (i, j) in enumerate(codomain_positions):
        first[i][j] = k * per
    # row_terms[b]: (j, coordinates of c * Y[b][j] per c), Y[b][j] != 0;
    # col_terms[a]: (i, coordinates of -sigma(c) * Y[i][a] per c)
    row_terms = [[] for _ in range(n)]
    col_terms = [[] for _ in range(n)]
    for r, wr in enumerate(w):
        for s, v in enumerate(wr):
            if v:
                by_c, by_neg_sigma_c = products(v)
                row_terms[r].append((s, by_c))
                col_terms[s].append((r, by_neg_sigma_c))
    width = len(codomain_positions) * per
    rows = []
    for (a, b) in domain_positions:
        first_a = first[a]
        terms = [(first_a[j], cs) for j, cs in row_terms[b]
                 if first_a[j] is not None]
        terms += [(first[i][b], cs) for i, cs in col_terms[a]
                  if first[i][b] is not None]
        both = first_a[b]
        if both is not None and w[a][a] and w[b][b]:
            terms = [(base, cs) for base, cs in terms if base != both]
            coords = model.prime_coords
            terms.append((both, [coords(c * w[b][b] + d * w[a][a])
                                 for c, d in zip(*model._bracket_scalars)]))
        for t in range(per):
            row = [0] * width
            for base, cs in terms:
                row[base:base + per] = cs[t]
            rows.append(tuple(row))
    return FLinearSystem(rows=tuple(rows), char=model.char,
                         subfield_degree=model.subfield_degree)
