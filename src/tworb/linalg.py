"""Sigma-linear endomorphisms of E^n and exact F-linear solving.

Convention, used everywhere in this package: a sigma-linear map is stored
as an n x n matrix Y over E acting by v -> Y * sigma(v), with sigma applied
entrywise to v.  Under this convention the k-th power of the map is the
alternating product Y * sigma(Y) * Y * ... with k factors, and the
differentiated twisted action of Z in gl_n(E) is Z*Y - Y*sigma(Z).

All F-linear questions (centralizers, brackets, ranks) are answered by
flattening E-coordinates over the prime field: over Q(sqrt(tau)) in the
basis (1, sqrt(tau)), and over F_p in the monomial basis of E = F_p[x]/(mu).
For the finite model an F_q-dimension is the prime-field dimension divided
by e; FLinearSystem owns that single conversion point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

from .fields import ExtElement, QuadraticExtensionModel


class SingularMatrix(ValueError):
    pass


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
    z, o = model.zero, model.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


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


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sigma(model, a: Matrix) -> Matrix:
    s = model.sigma
    return tuple([tuple([s(x) for x in row]) for row in a])


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_zero(a: Matrix) -> bool:
    return not any(map(any, a))


def mat_rank(a: Matrix) -> int:
    """Rank over E, by division-free elimination (see _rank).

    Over the domain Z[sqrt(tau)] the entries stay ints, and its rank
    equals the rank over the fraction field E.
    """
    return _rank([list(r) for r in a])


def row_echelon(rows) -> Matrix:
    """Reduced row-echelon form over E of the span of ``rows``.

    Its rows are the nonzero ones left by Gauss-Jordan elimination: each
    has leading entry one, and every other row is zero in that column.
    The form depends on the span only, so it is the span's hashable key.
    A pivot row is zero left of its pivot column, so each step touches
    only the columns from the pivot on; a pivot that is already one, as
    in an echelon basis passed back in, is neither inverted nor scaled.
    """
    work = [list(r) for r in rows]
    rank = 0
    one = None
    for col in range(len(work[0]) if work else 0):
        for i in range(rank, len(work)):
            if work[i][col]:
                break
        else:
            continue
        work[rank], work[i] = work[i], work[rank]
        tail = work[rank][col:]
        if one is None:
            one = tail[0].model.one
        if tail[0] != one:
            inv = tail[0].inverse()
            tail = [x * inv for x in tail]
            work[rank][col:] = tail
        for k, row in enumerate(work):
            f = row[col]
            if f and k != rank:
                row[col:] = [x - f * y for x, y in zip(row[col:], tail)]
        rank += 1
    return tuple(tuple(r) for r in work[:rank])


def reduce_row(basis: Matrix, row) -> list:
    """``row`` less its part in the span of ``basis``, a row_echelon form.

    Each basis row is subtracted at its leading column, where the others
    are zero, so one pass suffices: the result is zero exactly when
    ``row`` lies in the span.
    """
    cur = list(row)
    for b in basis:
        lead = next(j for j, x in enumerate(b) if x)
        f = cur[lead]
        if f:
            cur[lead:] = [x - f * y for x, y in zip(cur[lead:], b[lead:])]
    return cur


def mat_inv(a: Matrix) -> Matrix:
    """Inverse over E: the row_echelon form of [A | I] is [I | A^-1].

    [A | I] has rank n, so its form has n rows; A is singular exactly
    when the last of them has its leading one right of column n - 1.
    """
    n = len(a)
    form = row_echelon([[*row, *idrow] for row, idrow in
                        zip(a, mat_identity(a[0][0].model, n))])
    if not form[-1][n - 1]:
        raise SingularMatrix("matrix over E is singular")
    return tuple(row[n:] for row in form)


# ---------------------------------------------------------------------------
# twisted endomorphisms


@dataclass(frozen=True)
class TwistedEndo:
    """The sigma-linear map v -> Y * sigma(v) on E^n.

    ``_powers`` holds the twisted powers P_0, P_1, ... made so far (see
    twisted_power); it takes no part in ==, hash or dataclasses.replace.
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

    def to_json(self):
        m = self.model
        return [[m.element_to_json(x) for x in row] for row in self.mat]


def twisted_power(y: TwistedEndo, k: int) -> Matrix:
    """Matrix of the k-th power: the alternating product with k factors.

    The powers are memoized on ``y``: a call makes only the products no
    earlier call made, and none past the first zero power, which every
    later power equals.  Each longer tuple is published whole, so callers
    sharing ``y`` can at worst make a product twice.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    powers = y._powers or (mat_identity(y.model, y.n),)
    while len(powers) <= k and not mat_is_zero(powers[-1]):
        powers += (mat_mul(y.mat, mat_sigma(y.model, powers[-1])),)
        object.__setattr__(y, "_powers", powers)
    return powers[min(k, len(powers) - 1)]


def sigma_conjugate(h: Matrix, y: TwistedEndo) -> TwistedEndo:
    """h * Y * sigma(h)^(-1); preserves the Jordan type."""
    model = y.model
    sh_inv = mat_inv(mat_sigma(model, h))
    return TwistedEndo(model, y.n, mat_mul(mat_mul(h, y.mat), sh_inv))


def twisted_bracket(z: Matrix, y: TwistedEndo) -> Matrix:
    """Differentiated action of gl_n(E): Z*Y - Y*sigma(Z); F-linear in Z."""
    model = y.model
    return mat_sub(mat_mul(z, y.mat), mat_mul(y.mat, mat_sigma(model, z)))


def is_nilpotent(y: TwistedEndo) -> bool:
    """True iff the n-th twisted power vanishes.

    The images of the powers of a sigma-semilinear map are E-subspaces,
    each inside the one before; once two consecutive images agree, all
    later ones do.  So the dimensions fall strictly until they settle,
    which happens by power n, and a nilpotent map vanishes by power n.
    """
    return mat_is_zero(twisted_power(y, y.n))


# ---------------------------------------------------------------------------
# exact rank / kernel over the base field


def _rank(rows: list[list], reduce=None) -> int:
    """Rank of a matrix over a domain, by division-free elimination.

    Eliminates in place, so ``rows`` is consumed.  Only rows with a
    nonzero entry in the pivot column change: each becomes
    piv * row - f * pivot_row on the columns right of the pivot, passed
    through ``reduce`` when one is given.  No inverse is taken, and
    entries left of the pivot column are never read again.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
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
        rank += 1
        if rank == nrows:
            break
    return rank


def _content_free(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rank_int(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, consuming ``rows``: fraction-free
    elimination that divides each updated row by the gcd of its entries,
    which divides every entry exactly and keeps them small."""
    return _rank(rows, _content_free)


def _rank_modp(rows: list[list[int]], p: int) -> int:
    def mod_p(row):
        return [x % p for x in row]

    return _rank([mod_p(r) for r in rows], mod_p)


def _scale_rows_to_int(rows) -> list[list[int]]:
    """Clear each row's denominators, unless every entry is already an int.

    The types are gathered in one scan of the whole system, so a system
    of ints passes through as is; otherwise every row is scaled, which
    also turns integral Fractions into ints.
    """
    if set(map(type, chain.from_iterable(rows))) == {int}:
        return rows
    out = []
    for r in rows:
        mult = math.lcm(*(x.denominator for x in r))
        out.append([int(x * mult) for x in r])
    return out


@dataclass(frozen=True)
class FLinearSystem:
    """An F-linear map, flattened to a matrix over the prime field.

    ``rows`` are the matrix rows of prime-field scalars: over Q each entry
    is an int or a Fraction, over F_p each is an int.  The rank is taken
    on the transpose without its all-zero rows; over Q a transpose of ints
    goes to fraction-free elimination as it is, and any other has every
    row scaled to ints first.  Stated dimensions are F-dimensions; for the
    finite model they equal prime-field dimensions divided by
    subfield_degree.
    """

    rows: tuple
    domain_dim_F: int
    codomain_dim_F: int
    char: int  # 0 for Q, p for the finite model
    subfield_degree: int = 1

    def _prime_rank(self) -> int:
        # rank is invariant under transposing and under dropping zero rows;
        # a codomain coordinate that no image reaches (outside p, for the
        # bracket on p) is a zero row of the transpose
        rows = [list(c) for c in zip(*self.rows) if any(c)]
        if not rows:
            return 0
        if self.char == 0:
            return _rank_int(_scale_rows_to_int(rows))
        return _rank_modp(rows, self.char)

    def rank_F(self) -> int:
        r = self._prime_rank()
        e = self.subfield_degree
        if r % e:
            raise ValueError("map is not F-linear: rank not divisible by e")
        return r // e

    def kernel_dim_F(self) -> int:
        return self.domain_dim_F - self.rank_F()


# ---------------------------------------------------------------------------
# flattening maps on matrix subspaces


def bracket_system(y: TwistedEndo, domain_positions=None) -> FLinearSystem:
    """The flattened map Z -> Z*Y - Y*sigma(Z) on a span of positions.

    Domain basis: c * E_ab for each position (a, b) and each prime-basis
    scalar c; each basis vector gives one row, the prime coordinates of
    its image.  On c * E_ab the bracket is closed form: row a receives
    c * (row b of Y) and column b receives -sigma(c) * (column a of Y).
    Both products are taken once per nonzero entry of Y and per c, and
    every row copies their coordinates; the one entry that can receive
    both terms, (a, b) when Y[b][b] and Y[a][a] are nonzero, is summed in
    E first.  The rows agree entry for entry with running the generic
    flattener over twisted_bracket (tested).
    """
    model, n = y.model, y.n
    if domain_positions is None:
        domain_positions = [(i, j) for i in range(n) for j in range(n)]
    else:
        domain_positions = list(domain_positions)
    basis = model.prime_basis()
    neg_sigma_basis = [-model.sigma(c) for c in basis]
    coords = model.prime_coords
    per = model.prime_dim_per_e_dim
    w = y.mat
    # row_terms[b]: (j, coordinates of c * Y[b][j] per c), Y[b][j] != 0;
    # col_terms[a]: (i, coordinates of -sigma(c) * Y[i][a] per c)
    row_terms = [[] for _ in range(n)]
    col_terms = [[] for _ in range(n)]
    for r in range(n):
        for s in range(n):
            v = w[r][s]
            if v:
                row_terms[r].append((s, [coords(c * v) for c in basis]))
                col_terms[s].append(
                    (r, [coords(c * v) for c in neg_sigma_basis]))
    width = n * n * per
    rows = []
    for (a, b) in domain_positions:
        terms = [((a * n + j) * per, cs) for j, cs in row_terms[b]]
        terms += [((i * n + b) * per, cs) for i, cs in col_terms[a]]
        if w[a][a] and w[b][b]:
            both = (a * n + b) * per
            terms = [(base, cs) for base, cs in terms if base != both]
            terms.append((both, [coords(c * w[b][b] + d * w[a][a])
                                 for c, d in zip(basis, neg_sigma_basis)]))
        for t in range(per):
            row = [0] * width
            for base, cs in terms:
                row[base:base + per] = cs[t]
            rows.append(tuple(row))
    e = model.subfield_degree
    return FLinearSystem(
        rows=tuple(rows),
        domain_dim_F=len(domain_positions) * per // e,
        codomain_dim_F=n * n * per // e,
        char=model.char,
        subfield_degree=e,
    )
