"""Parabolic block data, the induction rank certificate, and oracles.

Two kinds of block decompositions appear:

* :class:`ParabolicShape`, from a composition of n: the flag stabilizer
  P = MN with block-diagonal mask s_M, strictly-upper mask s_N.
* :class:`AdaptedParabolic`, from a Jordan type: the ParabolicShape of
  the (i, j) block grid of the standard representative, plus the mask of
  the excess space u_X that measures N_X\\N.

Induction samples Y in s_N from a seeded pool and certifies each sample
with an exact rank computation (equality of tangent spaces); certified
samples are never wrong, so sampling affects liveness only.

The certificate is ranked in two parts.  Take X in m (support-checked)
and Y in s_N, W = X + Y, and L(Z) = ZW - W sigma(Z) on p = m + n.  Grade
by block degree: products add degrees and sigma keeps them, so L never
lowers the degree, and its degree-0 part is L_0 = [., X] on m.  Hence

    rank L = rank L_0 + rank(L : ker L_0 + n -> n),

and rank L = dim_F [m, X] + dim_F s_N holds iff the second map is onto
n.  L_0 depends on X only, so it is eliminated once per case, for its
rank and a kernel basis; each sample ranks only the second map.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .fields import QuadraticExtensionModel
from .linalg import (FLinearSystem, TwistedEndo, bracket_system, reduce_row,
                     row_echelon)
from .orbits import (JordanType, jordan_type_of, orbit_dimension,
                     standard_representative)

SAMPLING_BOUND = 101  # rational pool {1..B} * (1, sqrt(tau)); Schwartz-Zippel


class BadComposition(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


class SupportViolation(ValueError):
    pass


class GenericityFailure(RuntimeError):
    """No sampled Y passed the rank certificate within the trial limit."""


# ---------------------------------------------------------------------------
# standard parabolic from a composition


@dataclass(frozen=True)
class ParabolicShape:
    composition: tuple[int, ...]
    n: int
    m_mask: frozenset
    n_mask: frozenset

    @property
    def dim_F_sN(self) -> int:
        return 2 * len(self.n_mask)


def _block_masks(comp: tuple[int, ...]) -> tuple[int, frozenset, frozenset]:
    """n and the m and n masks of the blocks of sizes comp, in order: m on
    the diagonal blocks, n where the row block comes first."""
    block = [b for b, size in enumerate(comp) for _ in range(size)]
    n = len(block)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    return (n, frozenset((a, b) for a, b in pairs if block[a] == block[b]),
            frozenset((a, b) for a, b in pairs if block[a] < block[b]))


def standard_parabolic(comp) -> ParabolicShape:
    comp = tuple(int(c) for c in comp)
    if not comp or any(c < 1 for c in comp):
        raise BadComposition(f"composition parts must be >= 1: {comp}")
    return ParabolicShape(comp, *_block_masks(comp))


# ---------------------------------------------------------------------------
# the parabolic adapted to a Jordan type


@dataclass(frozen=True)
class AdaptedParabolic(ParabolicShape):
    """Block grid of the standard representative's basis.

    Groups are the (i, j) pieces, 1 <= i <= j <= r with d_j >= 1, in basis
    order (level i ascending, j descending inside a level); each group has
    size d_j, and the composition is the group sizes.  The u_X condition
    on a pair source=(i, j), target=(i', j') is exactly: i - 1 > i', or
    i = i' + 1 and j < j'.
    """

    jordan_type: JordanType
    groups: tuple  # (i, j, offset, size)
    u_mask: frozenset

    @property
    def dim_F_uX(self) -> int:
        return 2 * len(self.u_mask)


def adapted_parabolic(t: JordanType) -> AdaptedParabolic:
    d = t.multiplicities()
    groups = []
    offset = 0
    for i in range(1, t.r + 1):
        for j in range(t.r, i - 1, -1):
            if d[j] > 0:
                groups.append((i, j, offset, d[j]))
                offset += d[j]
    comp = tuple(size for *_, size in groups)
    u_mask = frozenset(
        (toff + a, soff + b)
        for i, j, soff, ssize in groups if i >= 2
        for ip, jp, toff, tsize in groups
        if i - 1 > ip or (i == ip + 1 and j < jp)
        for a in range(tsize) for b in range(ssize))
    return AdaptedParabolic(comp, *_block_masks(comp), t, tuple(groups),
                            u_mask)


def n_x_dim_oracle(t: JordanType, model: QuadraticExtensionModel) -> int:
    """F-dimension of the centralizer of the representative inside n."""
    ad = adapted_parabolic(t)
    x = standard_representative(t, model)
    return bracket_system(x, sorted(ad.n_mask)).kernel_dim_F()


# ---------------------------------------------------------------------------
# the rank certificate for induced orbits


def _check_support(endo: TwistedEndo, mask: frozenset, what: str):
    for a in range(endo.n):
        for b in range(endo.n):
            if endo.mat[a][b] and (a, b) not in mask:
                raise SupportViolation(
                    f"{what} has a nonzero entry at {(a, b)} outside its mask")


class _LeviBlock(NamedTuple):
    """The degree-0 part L_0 = [., X] on m of the certificate for one X,
    and the positions every sample of the case flattens on.

    ``kernel`` is a prime-field basis of ker L_0, each vector a tuple of
    (row, coefficient) pairs over the rows of bracket_system(., m), with
    the m positions in sorted order.  ``n_positions`` are the n positions
    in sorted order, and ``domain`` is n_positions followed by the sorted
    m positions, the domain _sample_rank flattens the bracket of W from.
    """

    rank_F: int     # dim_F [m, X]
    expected: int   # dim_F [m, X] + dim_F s_N
    kernel: tuple
    n_positions: list
    domain: list


def _levi_block(shape: ParabolicShape, x: TwistedEndo) -> _LeviBlock:
    """Eliminate the Levi system of X in m once: its rank and kernel.

    X is support-checked to lie in m, so [m, X] lies in m, and the system
    is flattened onto the m positions only, with the rank unchanged.
    """
    _check_support(x, shape.m_mask, "X")
    m = sorted(shape.m_mask)
    n_positions = sorted(shape.n_mask)
    rank, kernel = bracket_system(x, m, m).rank_and_kernel()
    return _LeviBlock(rank, rank + shape.dim_F_sN, tuple(kernel),
                      n_positions, [*n_positions, *m])


def _combine(vec, rows) -> list:
    """sum c * rows[j] over the (j, c) pairs of a kernel vector."""
    (j, c), *rest = vec
    acc = rows[j] if c == 1 else [c * v for v in rows[j]]
    for j, c in rest:
        acc = [s + c * v for s, v in zip(acc, rows[j])]
    return acc


def _sample_rank(x: TwistedEndo, levi: _LeviBlock,
                 y: TwistedEndo) -> tuple[TwistedEndo, int]:
    """The sample W = X + Y and dim_F [p, W], for X in m and Y in s_N.

    X is zero on n (_levi_block checked it lies in m) and Y is zero off
    n, so W is X with Y's entries written over its n positions, with no
    E-addition.  By the block-triangular identity of the module
    docstring, which needs exactly those supports, dim_F [p, W] =
    rank L_0 + rank(L : ker L_0 + n -> n).  The bracket of W is flattened
    from the case's domain, n and then m, onto n; the rows of the second
    map are those of n and the kernel combinations of the rows of m.  The
    rows of n go first, so the elimination pivots on them before the
    denser kernel combinations: for (2, 2, 1) with Levi types (1, 1),
    (2), (1) that takes 13 row updates instead of 56.
    """
    model, n = x.model, x.n
    n_pos = levi.n_positions
    overlay = [list(r) for r in x.mat]
    for i, j in n_pos:
        overlay[i][j] = y.mat[i][j]
    w = TwistedEndo(model, n, tuple(map(tuple, overlay)))
    rows = bracket_system(w, levi.domain, n_pos).rows
    split = len(n_pos) * model.prime_dim_per_e_dim
    levi_rows = rows[split:]
    reduced = rows[:split] + tuple(_combine(v, levi_rows) for v in levi.kernel)
    return w, levi.rank_F + FLinearSystem(
        reduced, model.char, model.subfield_degree).rank_F()


def rank_criterion(shape: ParabolicShape, x: TwistedEndo,
                   y: TwistedEndo) -> bool:
    """Tangent-space equality [p, X+Y] = [m_P, X] + s_N, by exact ranks."""
    levi = _levi_block(shape, x)
    _check_support(y, shape.n_mask, "Y")
    return _sample_rank(x, levi, y)[1] == levi.expected


# ---------------------------------------------------------------------------
# sampling


def sample_s_n(shape: ParabolicShape, model: QuadraticExtensionModel,
               rng: random.Random) -> TwistedEndo:
    """Y supported on s_N with entries from the deterministic pool."""
    n = shape.n
    z = model.zero
    rows = [[z] * n for _ in range(n)]
    for (a, b) in sorted(shape.n_mask):
        if model.kind == "rational":
            rows[a][b] = model.el(rng.randrange(1, SAMPLING_BOUND + 1),
                                  rng.randrange(1, SAMPLING_BOUND + 1))
        else:
            rows[a][b] = model.random_element(rng)
    return TwistedEndo(model, n, tuple(tuple(r) for r in rows))


def _ranked_samples(shape: ParabolicShape, x: TwistedEndo,
                    levi: _LeviBlock, seed: int, trials: int):
    """Yield (W, dim_F [p, W]) for ``trials`` samples W = X + Y, each Y
    drawn by sample_s_n from one random.Random(seed)."""
    rng = random.Random(seed)
    for _ in range(trials):
        yield _sample_rank(x, levi, sample_s_n(shape, x.model, rng))


def blockwise_representative(shape: ParabolicShape, m_types,
                             model: QuadraticExtensionModel) -> TwistedEndo:
    m_types = list(m_types)
    if len(m_types) != len(shape.composition):
        raise ShapeMismatch("one Jordan type per composition block")
    n = shape.n
    z = model.zero
    rows = [[z] * n for _ in range(n)]
    off = 0
    for size, t in zip(shape.composition, m_types):
        if t.n != size:
            raise ShapeMismatch(f"type {t} does not partition block of {size}")
        rep = standard_representative(t, model)
        for a in range(size):
            for b in range(size):
                rows[off + a][off + b] = rep.mat[a][b]
        off += size
    return TwistedEndo(model, n, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class InductionReport:
    composition: tuple[int, ...]
    m_types: tuple[JordanType, ...]
    induced_type: JordanType
    trials_used: int
    rejected: int


def induce_orbit_report(shape: ParabolicShape, m_types,
                        model: QuadraticExtensionModel, *, seed: int = 0,
                        max_trials: int = 40) -> InductionReport:
    """Like :func:`induce_orbit` but keeps the trial statistics."""
    m_types = tuple(m_types)
    x = blockwise_representative(shape, m_types, model)
    levi = _levi_block(shape, x)
    ranks = []
    for w, rank in _ranked_samples(shape, x, levi, seed, max_trials):
        if rank == levi.expected:
            return InductionReport(shape.composition, m_types,
                                   jordan_type_of(w), len(ranks) + 1,
                                   len(ranks))
        ranks.append(rank)
    raise GenericityFailure(
        f"no certified sample in {max_trials} trials for {shape.composition}:"
        f" expected rank {levi.expected} (dim_F [m, X] + dim_F s_N),"
        f" the trials got ranks {ranks}")


def induce_orbit(shape: ParabolicShape, m_types,
                 model: QuadraticExtensionModel, *, seed: int = 0,
                 max_trials: int = 40) -> JordanType:
    """Jordan type of the induced orbit, from a certified generic sample."""
    return induce_orbit_report(shape, m_types, model, seed=seed,
                               max_trials=max_trials).induced_type


@dataclass
class PorbReport:
    """Outcome of sampling the single-P-orbit consequences."""

    composition: tuple[int, ...]
    m_types: tuple[JordanType, ...]
    trials: int
    certified_trials: int = 0
    tangent_dim_checks: int = 0
    induced_type: JordanType | None = None
    constant_type: bool = True
    types_seen: list = field(default_factory=list)
    rejected_trials: list = field(default_factory=list)  # 0-based indices

    @property
    def failures(self) -> int:
        """Trials whose rank fell short of the certificate's."""
        return len(self.rejected_trials)

    @property
    def ok(self) -> bool:
        return (self.certified_trials > 0 and self.constant_type
                and self.tangent_dim_checks == self.certified_trials
                and self.induced_type == induced_row_sum(self.m_types))

    def to_json(self) -> dict:
        """The report row; a failing case also lists every type seen and
        the indices of the trials whose rank fell short."""
        out = {
            "composition": list(self.composition),
            "m_types": [t.to_json() for t in self.m_types],
            "trials": self.trials,
            "certified_trials": self.certified_trials,
            "failures": self.failures,
            "tangent_dim_checks": self.tangent_dim_checks,
            "induced_type": (self.induced_type.to_json()
                             if self.induced_type else None),
            "constant_type": self.constant_type,
        }
        if not self.ok:
            out["types_seen"] = [t.to_json() for t in self.types_seen]
            out["rejected_trials"] = list(self.rejected_trials)
        return out


def verify_porb(shape: ParabolicShape, m_types,
                model: QuadraticExtensionModel, *, trials: int = 20,
                seed: int = 0) -> PorbReport:
    """Sample s_N; every certified sample must hit one Jordan type, and
    that type's orbit dimension must be the induced one:

        dim_F O_ind = sum_i dim_F O_{M,i} + 2 dim_F s_N,

    with each dimension read off the Jordan type by orbit_dimension, once
    per distinct type, so the count of passing checks is independent of
    the rank certificate.
    The report is ok only if that type is also induced_row_sum(m_types)."""
    m_types = tuple(m_types)
    x = blockwise_representative(shape, m_types, model)
    report = PorbReport(shape.composition, m_types, trials)
    levi = _levi_block(shape, x)
    induced_dim = (sum(orbit_dimension(t).dim_orbit_F for t in m_types)
                   + 2 * shape.dim_F_sN)
    has_induced_dim = {}
    samples = _ranked_samples(shape, x, levi, seed, trials)
    for trial, (w, rank) in enumerate(samples):
        if rank != levi.expected:
            report.rejected_trials.append(trial)
            continue
        report.certified_trials += 1
        t = jordan_type_of(w)
        if t not in has_induced_dim:
            has_induced_dim[t] = orbit_dimension(t).dim_orbit_F == induced_dim
            report.types_seen.append(t)
        report.tangent_dim_checks += has_induced_dim[t]
    if report.certified_trials:
        report.constant_type = len(report.types_seen) == 1
        report.induced_type = report.types_seen[0]
    return report


# ---------------------------------------------------------------------------
# flag point-count oracle (tests the stable-flag reading of B_Y)


def flag_fixed_count(y: TwistedEndo) -> int:
    """Number of complete E-flags with every step stable under v -> Y sigma(v).

    Exhaustive enumeration; needs the finite model and small n.  This is
    the point-count oracle behind the Springer-dimension formula and the
    stable-flag reading of the fixed-flag condition.  A step V' over V,
    with V in row_echelon form, holds a line of vectors zero at V's pivot
    columns, and exactly one of them has a leading one: the vector r
    enumerated per free column ``lead``, so each step is named once.
    V' = V + <r> over a stable V is stable iff it contains Y sigma(r),
    since the map is sigma-semilinear.
    """
    model, n = y.model, y.n
    if model.kind != "finite":
        raise ValueError("flag counting needs the finite model")
    elems = list(model.elements())

    def apply_x(vec):
        sv = [model.sigma(v) for v in vec]
        return [sum((y.mat[i][j] * sv[j] for j in range(1, n)),
                    start=y.mat[i][0] * sv[0]) for i in range(n)]

    def count_from(rows):
        """Stable flags through the stable span with echelon form rows."""
        if len(rows) == n - 1:
            return 1
        pivots = {next(j for j, x in enumerate(b) if x) for b in rows}
        free = [j for j in range(n) if j not in pivots]
        total = 0
        for k, lead in enumerate(free):
            for tail in itertools.product(elems, repeat=len(free) - k - 1):
                r = [model.zero] * n
                r[lead] = model.one
                for j, x in zip(free[k + 1:], tail):
                    r[j] = x
                key = row_echelon(rows + (r,))
                if not any(reduce_row(key, apply_x(r))):
                    total += count_from(key)
        return total

    return count_from(())


def induced_row_sum(m_types) -> JordanType:
    """Induced type in GL_n by Lusztig-Spaltenstein (1979): parts add row by
    row, mu_i = sum_k lambda^k_i, with missing parts read as 0."""
    rows = itertools.zip_longest(*(t.parts for t in m_types), fillvalue=0)
    return JordanType(tuple(sum(r) for r in rows))


def richardson_dual(comp) -> JordanType:
    """Dual of the sorted composition; the Richardson cross-check rule."""
    return JordanType(tuple(sorted(comp, reverse=True))).dual()
