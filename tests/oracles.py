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
"""

from fractions import Fraction

from tworb.fields import ExtElement, QuadraticExtensionModel
from tworb.linalg import (FLinearSystem, Matrix, TwistedEndo, mat_identity,
                          mat_sigma)
from tworb.parabolic import AdaptedParabolic


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
    n = ad.jordan_type.n
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
