"""Slow reference implementations that only the tests use.

Each one is the plain, direct version of something ``tworb`` computes a
faster way, kept here as an oracle for it:

* ``flatten_map`` (with ``unit_matrix``) flattens any F-linear map on a
  span of matrix positions; ``linalg.bracket_system`` must agree with it
  over ``twisted_bracket`` entry for entry.
* ``from_prime_rows`` builds an ``FLinearSystem`` from raw prime-field rows.
* ``igusa_shell_measures_naive`` enumerates all of M_2(Z/p^L) and checks
  the tallied ``zeta.igusa_shell_measures``.
* ``embed_m_x`` embeds blocks along the twisted diagonal of M, which must
  commute with the standard representative.
* ``mat_mul_naive`` is the plain triple loop ``linalg.mat_mul`` must match;
  ``alternating_product`` multiplies Y * sigma(Y) * Y * ... out from the
  left with it, with no memo, against ``linalg.twisted_power``.
* ``twisted_bracket`` is Z*Y - Y*sigma(Z) by matrix products, the map
  ``bracket_system`` flattens in closed form; ``sigma_conjugate`` is the
  twisted action h * Y * sigma(h)^-1, by ``mat_inv``.
* ``split_type_of`` classifies Y without twisted powers: N = Y sigma(Y)
  is E-linear, and a twisted part j of Y becomes the ordinary parts
  ceil(j/2) and floor(j/2) of N; see ``split_parts``.
"""

from fractions import Fraction

from tworb.fields import ExtElement, QuadraticExtensionModel
from tworb.linalg import (FLinearSystem, Matrix, TwistedEndo, mat_identity,
                          mat_mul, mat_rank, mat_sigma, row_echelon)
from tworb.orbits import JordanType
from tworb.parabolic import AdaptedParabolic


class SingularMatrix(ValueError):
    pass


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


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sigma_conjugate(h: Matrix, y: TwistedEndo) -> TwistedEndo:
    """h * Y * sigma(h)^(-1); preserves the Jordan type."""
    model = y.model
    sh_inv = mat_inv(mat_sigma(model, h))
    return TwistedEndo(model, y.n, mat_mul(mat_mul(h, y.mat), sh_inv))


def twisted_bracket(z: Matrix, y: TwistedEndo) -> Matrix:
    """Differentiated action of gl_n(E): Z*Y - Y*sigma(Z); F-linear in Z."""
    model = y.model
    return mat_sub(mat_mul(z, y.mat), mat_mul(y.mat, mat_sigma(model, z)))


def from_prime_rows(rows, *, char: int,
                    subfield_degree: int = 1) -> FLinearSystem:
    return FLinearSystem(tuple(tuple(r) for r in rows), char, subfield_degree)


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
    scalar.  Each basis vector gives one row: the prime coordinates of
    fn(basis vector) at the codomain positions (default: all, row-major).
    """
    domain_positions = list(domain_positions)
    if codomain_positions is None:
        codomain_positions = [(i, j) for i in range(n) for j in range(n)]
    rows = []
    for pos in domain_positions:
        for mono in model.prime_basis():
            img = fn(unit_matrix(model, n, pos, mono))
            row = []
            for (i, j) in codomain_positions:
                row.extend(model.prime_coords(img[i][j]))
            rows.append(tuple(row))
    return FLinearSystem(tuple(rows), model.char, model.subfield_degree)


def igusa_shell_measures_naive(d: int, p: int, *, modulus_exp: int = 4,
                               order: int = 3) -> list[Fraction]:
    """Plain full enumeration of M_2(Z/p^L); validates the tallied oracle."""
    if d != 2:
        raise ValueError("naive path is for d = 2")
    mod = p**modulus_exp
    counts = [0] * (order + 1)
    for a in range(mod):
        for b in range(mod):
            for c in range(mod):
                for e in range(mod):
                    det = (a * e - b * c) % mod
                    if det == 0:
                        continue
                    v = 0
                    x = det
                    while x % p == 0:
                        x //= p
                        v += 1
                    if v <= order:
                        counts[v] += 1
    return [Fraction(cnt, mod**4) for cnt in counts]


def embed_m_x(ad: AdaptedParabolic, model: QuadraticExtensionModel,
              blocks: dict):
    """Embed (g_j)_j into M along the twisted diagonal.

    blocks maps j to a d_j x d_j matrix over E; group (i, j) receives
    sigma^(j-i)(g_j), which is what commuting with the representative
    through the identifications by its powers demands.
    """
    n = ad.n
    z = model.zero
    rows = [[z] * n for _ in range(n)]
    for (i, j, off, size) in ad.groups:
        g = blocks[j]
        for _ in range(j - i):
            g = mat_sigma(model, g)
        for a in range(size):
            for b in range(size):
                rows[off + a][off + b] = g[a][b]
    return tuple(tuple(r) for r in rows)


def mat_mul_naive(model, a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(len(b))), model.zero)
              for j in range(len(b[0])))
        for i in range(len(a)))


def alternating_product(y: TwistedEndo, k: int) -> Matrix:
    """The k-factor product Y * sigma(Y) * Y * ..., built afresh."""
    model = y.model
    factors = (y.mat, mat_sigma(model, y.mat))
    acc = mat_identity(model, y.n)
    for i in range(k):
        acc = mat_mul_naive(model, acc, factors[i % 2])
    return acc


def ordinary_type_of(a: Matrix) -> JordanType:
    """Jordan type of a nilpotent E-linear map from the ranks of its
    ordinary powers, made with mat_mul_naive: the number of parts of size
    at least k is rank a^(k-1) - rank a^k."""
    model, n = a[0][0].model, len(a)
    ranks, power = [n], mat_identity(model, n)
    while ranks[-1]:
        power = mat_mul_naive(model, power, a)
        ranks.append(mat_rank(power))
        if len(ranks) > n + 1:
            raise ValueError("not nilpotent")
    at_least = [r - s for r, s in zip(ranks, ranks[1:])] + [0]
    return JordanType(tuple(
        size for size in range(len(at_least) - 1, 0, -1)
        for _ in range(at_least[size - 1] - at_least[size])))


def split_parts(t: JordanType) -> JordanType:
    """Each part j of t split into ceil(j/2) and floor(j/2), zeros dropped."""
    return JordanType(tuple(sorted(
        (p for j in t.parts for p in ((j + 1) // 2, j // 2) if p),
        reverse=True)))


def split_type_of(y: TwistedEndo) -> JordanType:
    """The ordinary type of N = Y sigma(Y), which is E-linear.

    A twisted Jordan block of size j, v -> Y sigma(v) moving e_1 -> ...
    -> e_j -> 0, is two chains under N: the odd-indexed basis vectors
    and the even-indexed ones, of sizes ceil(j/2) and floor(j/2).  So
    for Y of twisted type t this must equal split_parts(t).
    """
    return ordinary_type_of(mat_mul_naive(
        y.model, y.mat, mat_sigma(y.model, y.mat)))
