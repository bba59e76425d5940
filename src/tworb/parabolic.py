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
n.  L_0 depends on X only, and X is block diagonal, so L_0 is too: its
rank and a kernel basis are assembled once per case from those of its
diagonal blocks, each made once per model and block content.  Each
sample ranks only the second map.

The second map's rows are those of n and the kernel combinations of the
rows of m.  The n positions are taken farthest from the diagonal first.
X is a blockwise standard representative and Y lies in s_N, so W is
strictly upper triangular, and the bracket of c E_ab with W lies at
(a, j), j > b, and (i, b), i < a, all farther from the diagonal than
(a, b): in that order the rows of n are strictly triangular, so the
fraction-free elimination fills in little.  The order changes no rank.

Once a sample certifies, the rows that carried its rank (the greedy
basis, as many as dim n) are kept, and each later sample of the case
ranks those rows first.  They are a subset of its system, whose rank
cannot exceed dim n, so full rank on them certifies the sample exactly;
only a sample they fail to certify is flattened and ranked on every row,
which gives its exact rank, and its basis is kept if it certifies.

The rows of a basis are linear in the prime coordinates of W's entries,
and W is X, fixed for the case, with the sample's entries on n.  So each
basis is compiled once per case (_compile_basis) into the transpose T of
its rows with X's part summed in, plus, per n entry of W and prime
coordinate, the cells of T it adds to and by what coefficient.  A later
sample sums its entries into a copy of T and ranks it, with no bracket
flattened.  The pivot columns of T do not depend on its row order, on
row scaling or on all-zero rows, so the ranks, the bases kept and the
reports are those of flattening the basis rows.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .fields import QuadraticExtensionModel, RationalElement
from .linalg import (FLinearSystem, TwistedEndo, _pivot_columns,
                     bracket_system, mat_rank)
from .orbits import (JordanType, _chain_ones, jordan_type_of,
                     orbit_dimension, standard_representative)

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

    groups: tuple  # (i, j, offset, size)
    u_mask: frozenset

    @property
    def dim_F_uX(self) -> int:
        return 2 * len(self.u_mask)


@lru_cache(maxsize=None)
def adapted_parabolic(t: JordanType) -> AdaptedParabolic:
    """The adapted parabolic of t, built once per type: the result is a
    frozen dataclass of tuples and frozensets, and building it calls no
    other layer function, so a rebound function never meets a stale
    cached value."""
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
    return AdaptedParabolic(comp, *_block_masks(comp), tuple(groups), u_mask)


def n_x_dim_oracle(t: JordanType, model: QuadraticExtensionModel) -> int:
    """F-dimension of the centralizer of the representative inside n."""
    ad = adapted_parabolic(t)
    x = standard_representative(t, model)
    return bracket_system(x, sorted(ad.n_mask)).kernel_dim_F()


# ---------------------------------------------------------------------------
# the rank certificate for induced orbits


class _LeviBlock(NamedTuple):
    """The degree-0 part L_0 = [., X] on m of the certificate for one X,
    the positions every sample of the case flattens on, and the bases
    compiled for the case.

    ``kernel`` is a prime-field basis of ker L_0, each vector a tuple of
    (row, coefficient) pairs over the rows of bracket_system(., m), with
    the m positions in sorted order; _levi_block assembles it from the
    diagonal blocks of X.  ``n_positions`` are the n positions
    by distance from the diagonal, farthest first (ties in row-major
    order), not sorted: the bracket of each with a strictly upper
    triangular W lies only at positions before it, so the n rows of a
    sample's system are strictly triangular (module docstring).
    ``domain`` is n_positions followed by the sorted m positions, the
    domain _sample_rank flattens the bracket of W from.  ``compiled``
    maps each basis a sample of the case was ranked on to its
    _compile_basis, made on first use and kept for the case.
    """

    rank_F: int     # dim_F [m, X]
    expected: int   # dim_F [m, X] + dim_F s_N
    kernel: tuple
    n_positions: list
    domain: list
    compiled: dict


# (model, payloads of an s x s block B) -> rank_F and kernel of [., B]
_BLOCK_SYSTEMS: dict = {}


def _block_rank_and_kernel(model: QuadraticExtensionModel,
                           block: tuple) -> tuple[int, tuple]:
    """rank_F and a kernel basis of [., B] on gl_s for the s x s matrix
    B, from bracket_system over every position in row-major order, made
    once per model and content of B."""
    key = model, tuple(tuple(v.payload for v in row) for row in block)
    hit = _BLOCK_SYSTEMS.get(key)
    if hit is None:
        s = len(block)
        every = list(itertools.product(range(s), repeat=2))
        rank, kernel = bracket_system(TwistedEndo(model, s, block), every,
                                      every).rank_and_kernel()
        hit = _BLOCK_SYSTEMS[key] = rank, tuple(kernel)
    return hit


def _levi_block(shape: ParabolicShape, x: TwistedEndo) -> _LeviBlock:
    """The Levi system of X in m, its rank and kernel assembled from the
    diagonal blocks of X.

    X is support-checked to lie in m, the diagonal blocks of the
    composition, so [m, X] lies in m, and the system is flattened onto
    the m positions only, with the rank unchanged.  For Z and X block
    diagonal, ZX - X sigma(Z) is block diagonal, and each block's
    positions are contiguous among the sorted m positions, so the system
    is block diagonal with one block per diagonal block B_i of X: that of
    [., B_i] on gl_(s_i).  Its rank is the sum of theirs, and its kernel
    the union of theirs, each row index shifted by the s_j^2 *
    prime_dim_per_e_dim rows of every block j before i.  Each block's
    rank and kernel come from _block_rank_and_kernel, keyed by content,
    so they hold for any X in m, not only a representative.
    """
    model, mat = x.model, x.mat
    per = model.prime_dim_per_e_dim
    rank, kernel, off, first_row = 0, [], 0, 0
    for size in shape.composition:
        end = off + size
        for a in range(off, end):
            row = mat[a]
            if any(row[:off]) or any(row[end:]):
                b = next(b for b, v in enumerate(row)
                         if v and not off <= b < end)
                raise SupportViolation(
                    f"X has a nonzero entry at {(a, b)} outside its mask")
        block_rank, block_kernel = _block_rank_and_kernel(
            model, tuple(row[off:end] for row in mat[off:end]))
        rank += block_rank
        kernel += [tuple((r + first_row, c) for r, c in vec)
                   for vec in block_kernel]
        off, first_row = end, first_row + size * size * per
    n_positions = sorted(shape.n_mask, key=lambda ab: (ab[0] - ab[1], ab))
    return _LeviBlock(rank, rank + shape.dim_F_sN, tuple(kernel),
                      n_positions, [*n_positions, *_row_major(shape.m_mask)],
                      {})


def _combine(vec, rows) -> list:
    """sum c * rows[j] over the (j, c) pairs of a kernel vector."""
    (j, c), *rest = vec
    acc = rows[j] if c == 1 else [c * v for v in rows[j]]
    for j, c in rest:
        acc = [s + c * v for s, v in zip(acc, rows[j])]
    return acc


class _CompiledBasis(NamedTuple):
    """The rows ``basis`` of the second map of one case, as T, the
    transpose of their system, affine in the sample's entries on n.

    ``base`` is T at W = X: one row per codomain prime coordinate that
    some term reaches, in codomain order, and one column per basis row.
    ``terms`` holds, for each n position (i, j) the rows read, one tuple
    per prime coordinate s of W[i][j], of the (T row, T column,
    coefficient) cells to which that coordinate adds coefficient times
    itself.  Over F_p the coefficients and ``base`` are reduced mod p;
    over Q each T row is scaled to clear its denominators, which changes
    no pivot column.  The scaling stays although _pivot_columns clears
    the rows it updates: with it, a sample whose coordinates are ints
    fills T in ints, so its elimination multiplies no Fraction, not even
    in a row that pivots before any update.  (Without it, porb at
    n <= 5 over Q(sqrt(1/2)), seed 1, took 0.51 s against 0.35 s, median
    of 5 on a 2-core Xeon.)
    """

    base: tuple
    terms: tuple


def _compile_basis(x: TwistedEndo, levi: _LeviBlock,
                   basis: tuple) -> _CompiledBasis:
    """Compile the rows ``basis`` of the second map for W = X + Y.

    The bracket of c E_ab with W puts c W[b][j] at (a, j) and
    -sigma(c) W[i][a] at (i, b), as in bracket_system, and the prime
    coordinates of c v are linear in those of v: the coefficients of
    v's s-th coordinate are those of c u_s, for u_s the s-th prime basis
    element, read off the model's _basis_products(u_s).  A kernel row is
    its combination of m rows, folded in here.  X's entries, on m, are
    the same for every sample and go into ``base``; Y's, on n, into
    ``terms``.  Entries off m and n are zero in every W.
    """
    model, n = x.model, x.n
    per = model.prime_dim_per_e_dim
    n_pos = levi.n_positions
    split = len(n_pos) * per
    m_pos = levi.domain[len(n_pos):]
    first = {pos: k * per for k, pos in enumerate(n_pos)}
    unit = [model._basis_products(u) for u in model.prime_basis()]
    const = {}  # (T row, T column) -> value at W = X
    coeffs = {}  # (i, j) -> per s, {(T row, T column): coefficient}

    def add(cell, row0, products, weight, col):
        for u, v in enumerate(products):
            cell[row0 + u, col] = cell.get((row0 + u, col), 0) + weight * v

    for col, r in enumerate(basis):
        if r < split:
            sources = [(n_pos[r // per], r % per, 1)]
        else:
            sources = [(m_pos[k // per], k % per, c)
                       for k, c in levi.kernel[r - split]]
        for (a, b), t, weight in sources:
            reads = [(first.get((a, j)), (b, j), 0) for j in range(n)]
            reads += [(first.get((i, b)), (i, a), 1) for i in range(n)]
            for row0, (i, j), side in reads:
                if row0 is None:
                    continue
                if (i, j) in first:
                    by_s = coeffs.setdefault((i, j), [{} for _ in unit])
                    for cell, products in zip(by_s, unit):
                        add(cell, row0, products[side][t], weight, col)
                elif x.mat[i][j]:
                    products = model._basis_products(x.mat[i][j])
                    add(const, row0, products[side][t], weight, col)
    p = model.char
    cells = [const, *itertools.chain.from_iterable(coeffs.values())]
    scale = {}  # over Q, the lcm of the denominators in each T row
    for cell in cells:
        for key, v in list(cell.items()):
            if p:
                v = cell[key] = v % p
            if not v:
                del cell[key]
            elif not p:
                scale[key[0]] = math.lcm(scale.get(key[0], 1), v.denominator)
    if not p:
        for cell in cells:
            for key, v in cell.items():
                cell[key] = int(v * scale[key[0]])
    reached = sorted({row for cell in cells for row, _ in cell})
    index = {row: k for k, row in enumerate(reached)}
    base = [[0] * len(basis) for _ in reached]
    for (row, col), v in const.items():
        base[index[row]][col] = v
    terms = tuple(
        (ij, tuple(tuple((index[row], col, v)
                         for (row, col), v in cell.items())
                   for cell in by_s))
        for ij, by_s in coeffs.items() if any(by_s))
    return _CompiledBasis(tuple(map(tuple, base)), terms)


def _basis_transpose(compiled: _CompiledBasis, w: TwistedEndo) -> list:
    """T for the sample W, ``base`` plus each term times W's coordinate."""
    t = [list(r) for r in compiled.base]
    mat = w.mat
    for (i, j), by_coord in compiled.terms:
        for v, cells in zip(mat[i][j].payload, by_coord):
            if v:
                for row, col, c in cells:
                    t[row][col] += c * v
    return t


def _sample_rank(x: TwistedEndo, levi: _LeviBlock, y: TwistedEndo,
                 basis=None) -> tuple[TwistedEndo, int, tuple | None]:
    """The sample W = X + Y, dim_F [p, W], and the rows that certify,
    for X in m and Y in s_N.

    X is zero on n (_levi_block checked it lies in m) and Y is zero off
    n, so W is X with Y's entries written over its n positions, with no
    E-addition.  With n empty (a one-block composition) W is X itself,
    so the twisted powers memoized on X serve every sample of the case;
    otherwise W is a new TwistedEndo, and no sample's powers reach X's
    memo.  By the block-triangular identity of the module
    docstring, which needs exactly those supports, dim_F [p, W] =
    rank L_0 + rank(L : ker L_0 + n -> n).  The bracket of W is flattened
    from the case's domain, n and then m, onto n; the rows of the second
    map are those of n and the kernel combinations of the rows of m.  The
    rows of n go first, so the elimination pivots on them before the
    denser kernel combinations, and in the order of levi.n_positions
    their part is strictly triangular: for (2, 2, 1) with Levi types
    (1, 1), (2), (1) and Y drawn from random.Random(0) that takes 5 row
    updates, against 13 in row-major order and 52 with the kernel
    combinations first.

    ``basis``, a tuple, indexes rows of the second map that certified an
    earlier sample, in its row order: n rows, then one per kernel vector.
    It is compiled once per case (_compile_basis, kept in
    levi.compiled), and W's entries on n fill its transpose, which is
    ranked over the prime field, where n has dimension split: the rows
    of a basis need not span an F-subspace.  They are some of the rows
    of W's second map, whose rank is at most split, so if theirs reaches
    it, W is certified exactly.  Otherwise, or with no basis, the whole
    domain is flattened and every row is ranked, for the exact rank.
    The basis returned is the one that certified W (``basis`` itself, or
    the greedy basis of every row), or ``basis`` as given when W is not
    certified.
    """
    model, n = x.model, x.n
    n_pos = levi.n_positions
    if n_pos:
        overlay = [list(r) for r in x.mat]
        for i, j in n_pos:
            overlay[i][j] = y.mat[i][j]
        w = TwistedEndo(model, n, tuple(map(tuple, overlay)))
    else:
        w = x
    split = len(n_pos) * model.prime_dim_per_e_dim
    if basis is not None:
        compiled = levi.compiled.get(basis)
        if compiled is None:
            compiled = levi.compiled[basis] = _compile_basis(x, levi, basis)
        t = _basis_transpose(compiled, w)
        if len(_pivot_columns(t, model.char)) == split:
            return w, levi.expected, basis
    rows = bracket_system(w, levi.domain, n_pos).rows
    levi_rows = rows[split:]
    full = FLinearSystem(
        rows[:split] + tuple(_combine(vec, levi_rows) for vec in levi.kernel),
        model.char, model.subfield_degree)
    rank = levi.rank_F + full.rank_F()
    return w, rank, full.basis_rows() if rank == levi.expected else basis


# ---------------------------------------------------------------------------
# sampling


def sample_s_n(shape: ParabolicShape, model: QuadraticExtensionModel,
               rng: random.Random) -> TwistedEndo:
    """Y supported on s_N with entries from the deterministic pool, drawn
    in row-major order of the positions."""
    n = shape.n
    z = model.zero
    rows = [[z] * n for _ in range(n)]
    positions = _row_major(shape.n_mask)
    if model.kind == "rational":
        draw = rng.randrange
        for a, b in positions:
            rows[a][b] = RationalElement(
                model, (draw(1, SAMPLING_BOUND + 1),
                        draw(1, SAMPLING_BOUND + 1)))
    else:
        for a, b in positions:
            rows[a][b] = model.random_element(rng)
    return TwistedEndo(model, n, tuple(tuple(r) for r in rows))


@lru_cache(maxsize=None)
def _row_major(mask: frozenset) -> tuple:
    """The positions of a mask in row-major order, sorted once per mask."""
    return tuple(sorted(mask))


def _ranked_samples(shape: ParabolicShape, x: TwistedEndo,
                    levi: _LeviBlock, seed: int, trials: int):
    """Yield (W, dim_F [p, W]) for ``trials`` samples W = X + Y, each Y
    drawn by sample_s_n from one random.Random(seed), each ranked first
    on the rows that certified the last certified sample."""
    rng = random.Random(seed)
    basis = None
    for _ in range(trials):
        w, rank, basis = _sample_rank(
            x, levi, sample_s_n(shape, x.model, rng), basis)
        yield w, rank


def blockwise_representative(shape: ParabolicShape, m_types,
                             model: QuadraticExtensionModel) -> TwistedEndo:
    """X in m: the standard representative of each Levi type on its
    diagonal block, its ones (orbits._chain_ones) written straight into
    one n x n grid.  Every entry is the one model.zero or the one
    model.one read here."""
    m_types = list(m_types)
    if len(m_types) != len(shape.composition):
        raise ShapeMismatch("one Jordan type per composition block")
    n = shape.n
    zero, one = model.zero, model.one
    rows = [[zero] * n for _ in range(n)]
    off = 0
    for size, t in zip(shape.composition, m_types):
        if t.n != size:
            raise ShapeMismatch(f"type {t} does not partition block of {size}")
        for a, b in _chain_ones(t):
            rows[off + a][off + b] = one
        off += size
    return TwistedEndo(model, n, tuple(map(tuple, rows)))


@dataclass(frozen=True)
class InductionReport:
    induced_type: JordanType
    trials_used: int
    rejected: int


def induce_orbit_report(shape: ParabolicShape, m_types,
                        model: QuadraticExtensionModel, *, seed: int = 0,
                        max_trials: int = 40) -> InductionReport:
    """Jordan type of the induced orbit, from a certified generic sample,
    with the trial statistics."""
    x = blockwise_representative(shape, m_types, model)
    levi = _levi_block(shape, x)
    ranks = []
    for w, rank in _ranked_samples(shape, x, levi, seed, max_trials):
        if rank == levi.expected:
            return InductionReport(jordan_type_of(w), len(ranks) + 1,
                                   len(ranks))
        ranks.append(rank)
    raise GenericityFailure(
        f"no certified sample in {max_trials} trials for {shape.composition}:"
        f" expected rank {levi.expected} (dim_F [m, X] + dim_F s_N),"
        f" the trials got ranks {ranks}")


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
    the rank certificate.  Each distinct certified sample is classified
    by jordan_type_of; with s_N empty every sample is X itself, classified
    once for the case.
    The report is ok only if that type is also induced_row_sum(m_types)."""
    m_types = tuple(m_types)
    x = blockwise_representative(shape, m_types, model)
    report = PorbReport(shape.composition, m_types, trials)
    levi = _levi_block(shape, x)
    induced_dim = (sum(orbit_dimension(t).dim_orbit_F for t in m_types)
                   + 2 * shape.dim_F_sN)
    has_induced_dim = {}
    # with s_N empty every sample is X itself: classify it once
    x_type = None if levi.n_positions else jordan_type_of(x)
    samples = _ranked_samples(shape, x, levi, seed, trials)
    for trial, (w, rank) in enumerate(samples):
        if rank != levi.expected:
            report.rejected_trials.append(trial)
            continue
        report.certified_trials += 1
        t = jordan_type_of(w) if x_type is None else x_type
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
    stable-flag reading of the fixed-flag condition.  A flag is built up
    one vector r per step.  V is spanned by the rows chosen so far, and
    its pivot columns are their leading ones, each row zero at the pivots
    chosen before it; so V has exactly one vector with any given entries
    at its pivots, and the vectors zero there form a complement of V.  A
    step V' over V holds a line of that complement, and exactly one of
    its vectors has a leading one: the vector r enumerated per free
    column ``lead``, zero at the pivots and at the free columns before
    ``lead``, so each step is named once and adds the pivot ``lead``.
    V' = V + <r> over a stable V is stable iff it contains Y sigma(r),
    since the map is sigma-semilinear: iff the rows, r and Y sigma(r)
    have rank len(rows) + 1, one mat_rank call per step.
    """
    model, n = y.model, y.n
    if model.kind != "finite":
        raise ValueError("flag counting needs the finite model")
    elems = list(model.elements())

    def apply_x(vec):
        sv = [model.sigma(v) for v in vec]
        return [sum((y.mat[i][j] * sv[j] for j in range(1, n)),
                    start=y.mat[i][0] * sv[0]) for i in range(n)]

    def count_from(rows, pivots):
        """Stable flags through the stable span of rows, with pivots."""
        if len(rows) == n - 1:
            return 1
        free = [j for j in range(n) if j not in pivots]
        total = 0
        for k, lead in enumerate(free):
            for tail in itertools.product(elems, repeat=len(free) - k - 1):
                r = [model.zero] * n
                r[lead] = model.one
                for j, x in zip(free[k + 1:], tail):
                    r[j] = x
                step = rows + (r,)
                if mat_rank(step + (apply_x(r),)) == len(step):
                    total += count_from(step, pivots | {lead})
        return total

    return count_from((), frozenset())


def induced_row_sum(m_types) -> JordanType:
    """Induced type in GL_n by Lusztig-Spaltenstein (1979): parts add row by
    row, mu_i = sum_k lambda^k_i, with missing parts read as 0."""
    rows = itertools.zip_longest(*(t.parts for t in m_types), fillvalue=0)
    return JordanType(tuple(sum(r) for r in rows))


def richardson_dual(comp) -> JordanType:
    """Dual of the sorted composition; the Richardson cross-check rule."""
    return JordanType(tuple(sorted(comp, reverse=True))).dual()
