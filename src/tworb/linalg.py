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
from dataclasses import dataclass

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
    return tuple(tuple(s(x) for x in row) for row in a)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def mat_rank(a: Matrix) -> int:
    """Rank over E, by division-free elimination.

    Each row below the pivot becomes piv * row - f * pivot_row, so no
    inverse is taken; over the domain Z[sqrt(tau)] the entries stay ints,
    and its rank equals the rank over the fraction field E.  Entries left
    of the pivot column are never read again and are not updated.
    """
    rows = [list(r) for r in a]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pval = rows[rank][col]
        tail = rows[rank][col + 1:]
        for i in range(rank + 1, nrows):
            ri = rows[i]
            f = ri[col]
            if f:
                ri[col + 1:] = [pval * x - f * y
                                for x, y in zip(ri[col + 1:], tail)]
        rank += 1
        if rank == nrows:
            break
    return rank


def mat_inv(a: Matrix) -> Matrix:
    n = len(a)
    model = a[0][0].model
    work = [list(row) + list(idrow)
            for row, idrow in zip(a, mat_identity(model, n))]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            raise SingularMatrix("matrix over E is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = work[col][col].inverse()
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return tuple(tuple(row[n:]) for row in work)


# ---------------------------------------------------------------------------
# twisted endomorphisms


@dataclass(frozen=True)
class TwistedEndo:
    """The sigma-linear map v -> Y * sigma(v) on E^n."""

    model: QuadraticExtensionModel
    n: int
    mat: Matrix

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
    """Matrix of the k-th power: the alternating product with k factors."""
    if k < 0:
        raise ValueError("k must be >= 0")
    model = y.model
    acc = mat_identity(model, y.n)
    for _ in range(k):
        acc = mat_mul(y.mat, mat_sigma(model, acc))
    return acc


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


def _rank_int(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination.

    Only rows with a nonzero entry in the pivot column change: each becomes
    piv * row - f * pivot_row, divided by the gcd of its entries, which
    divides every entry exactly and keeps them small.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pval = m[rank][col]
        tail = m[rank][col + 1:]
        for i in range(rank + 1, nrows):
            ri = m[i]
            f = ri[col]
            if f:
                new = [pval * x - f * y for x, y in zip(ri[col + 1:], tail)]
                g = math.gcd(*new)
                ri[col + 1:] = [x // g for x in new] if g > 1 else new
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_modp(rows: list[list[int]], p: int) -> int:
    m = [[x % p for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        rr = m[rank]
        for i in range(rank + 1, nrows):
            f = m[i][col]
            if f:
                ri = m[i]
                m[i] = [(x - f * y) % p for x, y in zip(ri, rr)]
        rank += 1
        if rank == nrows:
            break
    return rank


def _scale_rows_to_int(rows) -> list[list[int]]:
    """Clear each row's denominators; all-int rows pass through as is."""
    out = []
    for r in rows:
        if all(type(x) is int for x in r):
            out.append(r)
        else:
            mult = math.lcm(*(x.denominator for x in r))
            out.append([int(x * mult) for x in r])
    return out


@dataclass(frozen=True)
class FLinearSystem:
    """An F-linear map, flattened to a matrix over the prime field.

    ``rows`` are the matrix rows of prime-field scalars: over Q each entry
    is an int or a Fraction (rows of ints go to fraction-free elimination
    unchanged, other rows are scaled to ints first); over F_p each is an
    int.  Stated dimensions are F-dimensions; for the finite model they
    equal prime-field dimensions divided by subfield_degree.
    """

    rows: tuple
    domain_dim_F: int
    codomain_dim_F: int
    char: int  # 0 for Q, p for the finite model
    subfield_degree: int = 1

    def _prime_rank(self) -> int:
        rows = [list(r) for r in self.rows]
        if not rows or not rows[0]:
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

    @classmethod
    def from_prime_rows(cls, rows, *, char: int, subfield_degree: int = 1,
                        domain_dim_F: int | None = None,
                        codomain_dim_F: int | None = None) -> "FLinearSystem":
        rows = tuple(tuple(r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        e = subfield_degree
        dom = domain_dim_F if domain_dim_F is not None else ncols // e
        cod = codomain_dim_F if codomain_dim_F is not None else len(rows) // e
        return cls(rows, dom, cod, char, e)


# ---------------------------------------------------------------------------
# flattening maps on matrix subspaces


def unit_matrix(model, n: int, pos, scalar: ExtElement) -> Matrix:
    a, b = pos
    z = model.zero
    return tuple(
        tuple(scalar if (i == a and j == b) else z for j in range(n))
        for i in range(n))


def flatten_map(model, n: int, domain_positions, fn,
                codomain_positions=None) -> FLinearSystem:
    """Flatten the F-linear map ``fn`` on the span of matrix positions.

    Domain basis: scalar * E_{ab} for each position and each prime-basis
    scalar.  Columns of the system are prime coordinates of fn(basis).
    """
    domain_positions = list(domain_positions)
    if codomain_positions is None:
        codomain_positions = [(i, j) for i in range(n) for j in range(n)]
    basis = model.prime_basis()
    per = model.prime_dim_per_e_dim
    cols = []
    for pos in domain_positions:
        for mono in basis:
            img = fn(unit_matrix(model, n, pos, mono))
            col = []
            for (i, j) in codomain_positions:
                col.extend(model.prime_coords(img[i][j]))
            cols.append(col)
    e = model.subfield_degree
    char = 0 if model.kind == "rational" else model.p
    # orientation is irrelevant for rank; store basis vectors as rows
    return FLinearSystem(
        rows=tuple(tuple(c) for c in cols),
        domain_dim_F=len(domain_positions) * per // e,
        codomain_dim_F=len(codomain_positions) * per // e,
        char=char,
        subfield_degree=e,
    )


def bracket_system(y: TwistedEndo, domain_positions=None) -> FLinearSystem:
    """The flattened map Z -> Z*Y - Y*sigma(Z) on a span of positions.

    Columns are built from the closed form of the bracket on an elementary
    matrix c*E_ab: row a receives c * (row b of Y) and column b loses
    sigma(c) * (column a of Y).  This agrees entry for entry with running
    the generic flattener over twisted_bracket (tested), just faster.
    """
    model, n = y.model, y.n
    if domain_positions is None:
        domain_positions = [(i, j) for i in range(n) for j in range(n)]
    else:
        domain_positions = list(domain_positions)
    basis = model.prime_basis()
    per = model.prime_dim_per_e_dim
    w = y.mat
    zero_e = model.zero
    cols = []
    for (a, b) in domain_positions:
        for mono in basis:
            smono = model.sigma(mono)
            entries = {}
            for j in range(n):
                v = mono * w[b][j]
                if v:
                    entries[(a, j)] = v
            for i in range(n):
                v = smono * w[i][a]
                if v:
                    entries[(i, b)] = entries.get((i, b), zero_e) - v
            col = [0] * (n * n * per)
            for (i, j), v in entries.items():
                base = (i * n + j) * per
                for t, cv in enumerate(model.prime_coords(v)):
                    col[base + t] = cv
            cols.append(col)
    e = model.subfield_degree
    char = 0 if model.kind == "rational" else model.p
    return FLinearSystem(
        rows=tuple(tuple(c) for c in cols),
        domain_dim_F=len(domain_positions) * per // e,
        codomain_dim_F=n * n * per // e,
        char=char,
        subfield_degree=e,
    )
