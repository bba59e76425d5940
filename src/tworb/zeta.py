"""Zeta-integrand exponent structure and exact local monomial factors.

The weight attached to a block pair (i, j), i < j, is
|det A_{i,j}| ^ (e_ij + (j-i) s) with e_ij = d_i + ... + d_j.  The local
monomial model multiplies matrix Igusa factors with T shifted to
q^(-e_ij) T^(j-i); it models the unramified local factor up to the
constant coming from the compact integration, and is used solely for
exponent verification.  All dimension totals are F-dimensions.

An exponent table is the tuple of its entries.  The checks compare its
totals with dim O/2 and c, which they read from ``orbit_dimension`` (cached
where it is defined) through this module's binding on every call, so a
rebound ``zeta.orbit_dimension`` (as in the scaling check's failure test)
reaches every check made after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import TwistedEndo
from .orbits import JordanType, orbit_dimension
from .parabolic import ShapeMismatch, adapted_parabolic
from .ratfun import BivariateRationalFunction, FactoredRationalFunction


@dataclass(frozen=True)
class ExponentEntry:
    i: int
    j: int
    d_j: int
    e: int        # constant part d_i + ... + d_j
    s_coeff: int  # j - i

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "e": self.e,
                "s_coeff": self.s_coeff}


def exponent_table(t: JordanType) -> tuple[ExponentEntry, ...]:
    """One entry per block pair (i, j), i < j with d_j >= 1, ordered by
    (i, j)."""
    d = t.multiplicities()
    entries = []
    for j in range(2, t.r + 1):
        if d[j] < 1:
            continue
        for i in range(1, j):
            entries.append(ExponentEntry(
                i, j, d[j], sum(d[lev] for lev in range(i, j + 1)), j - i))
    entries.sort(key=lambda en: (en.i, en.j))
    return tuple(entries)


def dim_F_uX(t: JordanType) -> int:
    return adapted_parabolic(t).dim_F_uX


def homogeneity_identity_check(t: JordanType) -> bool:
    """Both displayed identities behind the homogeneity exponent.

    2 * sum d_j (d_i + ... + d_j) + dim_F(u_X) = dim(O)/2, and
    2 * sum d_j (j - i) = c.
    """
    table = exponent_table(t)
    inv = orbit_dimension(t)
    lhs_const = 2 * sum(en.d_j * en.e for en in table) + dim_F_uX(t)
    lhs_s = 2 * sum(en.d_j * en.s_coeff for en in table)
    return lhs_const == inv.half_dim and lhs_s == inv.c_exponent


# ---------------------------------------------------------------------------
# the banded matrix carrying the block data


def delta_matrix(t: JordanType, blocks: dict,
                 model) -> TwistedEndo:
    """Assemble the band matrix with A_{i,j} joining level i+1 to level i.

    ``blocks`` maps (i, j), 1 <= i < j <= r with d_j >= 1, to a d_j x d_j
    matrix over E.  With every block the identity this is the standard
    representative.
    """
    d = t.multiplicities()
    expected = {(i, j) for j in range(2, t.r + 1) if d[j] >= 1
                for i in range(1, j)}
    if set(blocks) != expected:
        raise ShapeMismatch(
            f"blocks keyed {sorted(blocks)} but need {sorted(expected)}")
    offsets = {(i, j): (off, size) for (i, j, off, size) in
               adapted_parabolic(t).groups}
    z = model.zero
    n = t.n
    rows = [[z] * n for _ in range(n)]
    for (i, j), a in blocks.items():
        size = d[j]
        if len(a) != size or any(len(r) != size for r in a):
            raise ShapeMismatch(f"block {(i, j)} must be {size}x{size}")
        roff = offsets[(i, j)][0]
        coff = offsets[(i + 1, j)][0]
        for r_i in range(size):
            for c_i in range(size):
                entry = a[r_i][c_i]
                if isinstance(entry, int):
                    entry = model.from_int(entry)
                rows[roff + r_i][coff + c_i] = entry
    return TwistedEndo(model, n, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# exact local factors


def igusa_matrix_factor(d: int) -> FactoredRationalFunction:
    """The determinant integral over integral d x d matrices.

    Product over k < d of (1 - q^-(k+1)) / (1 - q^-(k+1) T); its T-series
    coefficient at T^m is the measure of the shell |det| = q^-m.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    factors = {}
    for a in range(1, d + 1):
        factors[(a, 0)] = 1   # 1 - q^-a
        factors[(a, 1)] = -1  # over 1 - q^-a T
    return FactoredRationalFunction(factors=factors)


def _entry_factor(en: ExponentEntry) -> FactoredRationalFunction:
    """The matrix Igusa factor of the entry's block, with T shifted per the
    entry's exponent."""
    return igusa_matrix_factor(en.d_j).substitute_T(en.e, en.s_coeff)


def local_zeta_model(
        table: tuple[ExponentEntry, ...]) -> BivariateRationalFunction:
    """The product of the entry factors of an exponent table."""
    form = FactoredRationalFunction()
    for en in table:
        form = form * _entry_factor(en)
    return form.to_ratfun()


def scaling_exponent_check(t: JordanType, k: int) -> bool:
    """Scaling the lattice argument by a k-th uniformizer power must
    multiply the model by exactly q^(-k(half_dim + c s)).

    Each block factor transforms by the determinant homogeneity of its
    weight (F-normalized, so dimensions double), and the u_X integration
    contributes a pure measure factor q^(-k dim_F u_X).  The assembled
    transformed model divided by the assembled original must equal the
    monomial q^(-k half_dim) T^(k c).  Both models stay factored, so the
    quotient is exact exponent arithmetic.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    original = FactoredRationalFunction()
    transformed = FactoredRationalFunction(-k * dim_F_uX(t), 0)
    for en in exponent_table(t):
        f = _entry_factor(en)
        original = original * f
        transformed = transformed * FactoredRationalFunction(
            -k * 2 * en.d_j * en.e, k * 2 * en.d_j * en.s_coeff) * f
    inv = orbit_dimension(t)
    return transformed / original == FactoredRationalFunction(
        -k * inv.half_dim, k * inv.c_exponent)


# ---------------------------------------------------------------------------
# residue-ring shell oracle


def igusa_shell_measures(d: int, p: int, *, modulus_exp: int = 4,
                         order: int = 3) -> list[Fraction]:
    """Measures of {A in M_d(Z_p) : |det A| = p^-m} for m = 0..order.

    Counted exhaustively in M_d(Z/p^L) with L = modulus_exp and normalized
    by p^(L d^2); exact for m < L since the determinant valuation of a
    matrix mod p^L is well defined below L.
    """
    if order >= modulus_exp:
        raise ValueError("order must stay below the modulus exponent")
    mod = p**modulus_exp

    def val(x: int) -> int:
        if x % mod == 0:
            return modulus_exp  # means >= L; never matches m <= order
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    if d == 0:
        return [Fraction(1 if m == 0 else 0) for m in range(order + 1)]
    if d == 1:
        counts = [0] * (order + 1)
        for x in range(mod):
            v = val(x)
            if v <= order:
                counts[v] += 1
        total = mod
        return [Fraction(c, total) for c in counts]
    if d == 2:
        # det = ad - bc; tally products over the residue ring, then
        # correlate: #{det = z} = sum_x prod_counts[x] * prod_counts[x - z]
        prod_counts = [0] * mod
        for a in range(mod):
            for b in range(mod):
                prod_counts[(a * b) % mod] += 1
        det_counts = [0] * (order + 1)
        for z in range(mod):
            v = val(z)
            if v > order:
                continue
            total_z = 0
            for x in range(mod):
                total_z += prod_counts[x] * prod_counts[(x - z) % mod]
            det_counts[v] += total_z
        total = mod ** (d * d)
        return [Fraction(c, total) for c in det_counts]
    raise ValueError("shell oracle implemented for d <= 2")
