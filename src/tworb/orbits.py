"""Jordan classification of twisted nilpotents and orbit invariants.

A twisted nilpotent orbit is labelled by the partition recording its
Jordan block sizes; d_j is the number of blocks of size j.  All stated
dimensions are F-dimensions (the restriction of scalars doubles every
E-dimension; the doubling happens here, in one place per formula).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .fields import QuadraticExtensionModel
from .linalg import (NotNilpotent, TwistedEndo, _nonzero_powers,
                     bracket_system, is_nilpotent, mat_eq, mat_mul, mat_rank,
                     mat_sigma)


class BudgetExceeded(ValueError):
    """Exhaustive enumeration would exceed the configured budget."""


@dataclass(frozen=True, order=True)
class JordanType:
    """Partition of n, parts descending; d_j parts of size j."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be descending")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        """Largest block size (0 for the empty type)."""
        return self.parts[0] if self.parts else 0

    def multiplicities(self) -> dict[int, int]:
        """{j: d_j} for j = 1..r, zeros included."""
        d = dict.fromkeys(range(1, self.r + 1), 0)
        for p in self.parts:
            d[p] += 1
        return d

    def dual(self) -> "JordanType":
        if not self.parts:
            return self
        return JordanType(tuple(
            sum(1 for p in self.parts if p >= k)
            for k in range(1, self.parts[0] + 1)))

    def to_json(self) -> list[int]:
        return list(self.parts)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def enumerate_orbits(n: int) -> list[JordanType]:
    """All partitions of n, descending-lexicographic on part lists."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(rest: int, maxpart: int, prefix: tuple[int, ...]):
        if rest == 0:
            yield JordanType(prefix)
            return
        for part in range(min(rest, maxpart), 0, -1):
            yield from gen(rest - part, part, prefix + (part,))

    return list(gen(n, n if n else 1, ()))


# ---------------------------------------------------------------------------
# standard representatives and type recovery


def level_sizes(t: JordanType) -> list[int]:
    """m_i = d_i + ... + d_r for i = 1..r."""
    d = t.multiplicities()
    return [sum(d[j] for j in range(i, t.r + 1)) for i in range(1, t.r + 1)]


@lru_cache(maxsize=None)
def _chain_ones(t: JordanType) -> tuple:
    """The (row, column) positions of the ones of the standard
    representative of t, made once per type; every other entry is zero.

    Level i (of size m_i = d_i + ... + d_r) collects the basis vectors
    killed by exactly i applications, and chain c has its level-i vector
    at index m_1 + ... + m_(i-1) + c.  The map carries level i + 1 onto
    level i along the chains: a one at (level-i index of chain c,
    level-(i+1) index of chain c), for each chain c that reaches level
    i + 1.  That is an identity block on top of d_i zero rows.
    """
    sizes = level_sizes(t)
    ones, off = [], 0
    for below, above in zip(sizes, sizes[1:]):
        ones += [(off + c, off + below + c) for c in range(above)]
        off += below
    return tuple(ones)


def standard_representative(t: JordanType,
                            model: QuadraticExtensionModel) -> TwistedEndo:
    """The block matrix with shifted identity blocks, one level per power,
    with its ones at _chain_ones(t).  Every entry is the one
    model.zero or the one model.one read here.
    """
    n = t.n
    if n < 1:
        raise ValueError("standard_representative needs n >= 1")
    zero, one = model.zero, model.one
    rows = [[zero] * n for _ in range(n)]
    for a, b in _chain_ones(t):
        rows[a][b] = one
    return TwistedEndo(model, n, tuple(map(tuple, rows)))


def jordan_type_of(y: TwistedEndo) -> JordanType:
    """Recover the partition from ranks of twisted powers.

    The number of blocks of size >= k is rank(P_{k-1}) - rank(P_k).  The
    powers are the ones is_nilpotent made, memoized on ``y``, so a map of
    type lambda costs lambda_1 products in all.  Only the nonzero powers
    P_1, ..., P_(lambda_1 - 1) are ranked, lambda_1 - 1 eliminations:
    P_0 = I has rank n, and the first zero power, P_(lambda_1), rank 0.
    """
    if not is_nilpotent(y):
        raise NotNilpotent("twisted power of order n does not vanish")
    n = y.n
    ranks = [n, *map(mat_rank, _nonzero_powers(y)), 0]
    geq = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    parts = []
    for size in range(len(geq), 0, -1):
        mult = geq[size - 1] - (geq[size] if size < len(geq) else 0)
        if mult < 0:
            raise NotNilpotent("rank sequence is not a valid partition")
        parts.extend([size] * mult)
    t = JordanType(tuple(parts))
    if t.n != n:
        raise NotNilpotent("rank sequence does not sum to n")
    return t


# ---------------------------------------------------------------------------
# dimension formulas and the brute-force centralizer


@dataclass(frozen=True)
class OrbitInvariants:
    dim_orbit_F: int
    half_dim: int
    centralizer_dim_F: int
    c_exponent: int
    springer_dim_F: int

    def to_json(self) -> dict:
        return {
            "dim_orbit": self.dim_orbit_F,
            "half_dim": self.half_dim,
            "centralizer_dim": self.centralizer_dim_F,
            "c": self.c_exponent,
            "springer_dim": self.springer_dim_F,
        }


@lru_cache(maxsize=None)
def orbit_dimension(t: JordanType) -> OrbitInvariants:
    """The F-dimension invariants of the orbit of type t.

    Computed once per type: the result is frozen and the formula calls no
    other layer function, so a test that rebinds a function elsewhere
    never meets a stale cached value.
    """
    d = {j: m for j, m in t.multiplicities().items() if m}
    cent = 2 * sum(m * mp * min(j, jp)
                   for j, m in d.items() for jp, mp in d.items())
    dim_orbit = 2 * t.n * t.n - cent
    c = sum(j * (j - 1) * m for j, m in d.items())
    springer = 2 * sum(comb(k, 2) for k in t.dual().parts)
    return OrbitInvariants(dim_orbit, dim_orbit // 2, cent, c, springer)


def centralizer_dim_oracle(y: TwistedEndo) -> int:
    """F-dimension of {Z in gl_n(E) : Z*Y = Y*sigma(Z)}, by row reduction."""
    return bracket_system(y).kernel_dim_F()


def check_dimHY(t: JordanType) -> bool:
    """dim H_Y = 2 dim B_Y + dim T, all over F (dim_F T = 2n)."""
    inv = orbit_dimension(t)
    return inv.centralizer_dim_F == 2 * inv.springer_dim_F + 2 * t.n


# ---------------------------------------------------------------------------
# finite census


def matrix_space_size(model: QuadraticExtensionModel, n: int) -> int:
    return model.element_count() ** (n * n)


def gl_order(Q: int, n: int) -> int:
    """|GL_n| over a field with Q elements."""
    out = 1
    for i in range(n):
        out *= Q**n - Q**i
    return out


def _iter_matrices(model, n: int, indices):
    elems = list(model.elements())
    for combo in indices:
        entries = [elems[i] for i in combo]
        mat = tuple(tuple(entries[i * n + j] for j in range(n))
                    for i in range(n))
        yield TwistedEndo(model, n, mat)


def orbit_census(n: int, model: QuadraticExtensionModel, *,
                 budget: int = 10**7) -> dict[JordanType, int]:
    """Bucket twisted nilpotents in gl_n(E) by Jordan type.

    Exhaustive; BudgetExceeded if the matrix count exceeds the budget.
    Each matrix is classified by one jordan_type_of call, which raises
    NotNilpotent unless twisted_power(Y, n) = 0.  Most matrices are not
    nilpotent, and is_nilpotent rejects about 1 - 1/q of them by the
    trace of Y sigma(Y) before any twisted power.  Buckets are plain
    counts keyed by type, so partial enumerations over index ranges merge
    associatively; the returned dict is in canonical type order.
    """
    if model.kind != "finite":
        raise ValueError("census needs the finite model")
    total = matrix_space_size(model, n)
    if total > budget:
        raise BudgetExceeded(f"{total} matrices exceed budget {budget}")
    space = itertools.product(range(model.element_count()), repeat=n * n)
    counts: dict[JordanType, int] = {}
    for y in _iter_matrices(model, n, space):
        try:
            t = jordan_type_of(y)
        except NotNilpotent:
            continue
        counts[t] = counts.get(t, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: kv[0].parts,
                       reverse=True))


def stabilizer_order(y: TwistedEndo) -> int:
    """Exhaustive order of {h in GL_n(E) : h Y sigma(h)^{-1} = Y}."""
    model, n = y.model, y.n
    count = 0
    space = itertools.product(range(model.element_count()), repeat=n * n)
    for h in _iter_matrices(model, n, space):
        # h Y = Y sigma(h), and h invertible
        if mat_eq(mat_mul(h.mat, y.mat),
                  mat_mul(y.mat, mat_sigma(model, h.mat))):
            if mat_rank(h.mat) == n:
                count += 1
    return count
