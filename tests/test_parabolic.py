"""Parabolic masks, the rank certificate, induction, and the flag oracle."""

import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import SingularMatrix, embed_m_x, sigma_conjugate

from tworb.cli import _all_compositions
from tworb.fields import make_extension
from tworb.linalg import (FLinearSystem, TwistedEndo, _pivot_columns,
                          bracket_system, is_nilpotent, mat_eq, mat_mul,
                          mat_sigma)
from tworb.orbits import (JordanType, enumerate_orbits, orbit_dimension,
                          standard_representative)
from tworb.parabolic import (BadComposition, GenericityFailure, PorbReport,
                             ShapeMismatch, SupportViolation,
                             _levi_block, _sample_rank, adapted_parabolic,
                             blockwise_representative, flag_fixed_count,
                             induce_orbit_report, induced_row_sum,
                             n_x_dim_oracle, richardson_dual, sample_s_n,
                             standard_parabolic, verify_porb)

RAT = make_extension({"kind": "rational", "tau": 2})
RAT3 = make_extension({"kind": "rational", "tau": 3})
RAT_2_3 = make_extension({"kind": "rational", "tau": Fraction(2, 3)})
F4 = make_extension({"kind": "finite", "p": 2, "e": 1})
F9 = make_extension({"kind": "finite", "p": 3, "e": 1})
F16 = make_extension({"kind": "finite", "p": 2, "e": 2})
F101 = make_extension({"kind": "finite", "p": 101, "e": 1})


def T(*parts):
    return JordanType(tuple(parts))


def zero_types(comp):
    return [T(*(1,) * s) for s in comp]


def endo(rows, model=RAT):
    return TwistedEndo.from_rows(model, rows)


def certified(shape, x, y):
    """Whether W = X + Y passes the rank certificate, [p, W] = [m, X] + s_N,
    ranked as induction ranks each sample."""
    levi = _levi_block(shape, x)
    return _sample_rank(x, levi, y)[1] == levi.expected


# -- standard parabolic shapes ------------------------------------------------


def test_standard_parabolic_full_block():
    shape = standard_parabolic((3,))
    assert shape.n_mask == frozenset()
    assert len(shape.m_mask) == 9


def test_standard_parabolic_borel_n2():
    shape = standard_parabolic((1, 1))
    assert shape.n_mask == frozenset({(0, 1)})
    assert shape.dim_F_sN == 2


def test_standard_parabolic_21():
    shape = standard_parabolic((2, 1))
    assert shape.dim_F_sN == 4
    assert len(shape.m_mask) == 5 and len(shape.n_mask) == 2


def test_standard_parabolic_rejects_bad_composition():
    with pytest.raises(BadComposition):
        standard_parabolic(())
    with pytest.raises(BadComposition):
        standard_parabolic((2, 0))


def test_masks_disjoint_and_exhaustive():
    for comp in [(1, 2), (2, 2), (1, 1, 1), (4,)]:
        shape = standard_parabolic(comp)
        n = shape.n
        nbar_mask = {(b, a) for a, b in shape.n_mask}
        everything = {(i, j) for i in range(n) for j in range(n)}
        assert shape.m_mask | shape.n_mask | nbar_mask == everything
        assert not (shape.m_mask & shape.n_mask)
        assert not (shape.m_mask & nbar_mask)
        assert not (shape.n_mask & nbar_mask)


# -- adapted parabolic and u_X -----------------------------------------------


def test_adapted_parabolic_examples():
    assert adapted_parabolic(T(2)).dim_F_uX == 0
    assert adapted_parabolic(T(3, 1)).dim_F_uX == 4
    ad = adapted_parabolic(T(1, 1, 1))
    assert ad.n_mask == frozenset() and ad.dim_F_uX == 0


def test_adapted_parabolic_representative_in_n_mask():
    for parts in [(2,), (2, 1), (3, 1), (2, 2), (4, 2, 1)]:
        t = T(*parts)
        ad = adapted_parabolic(t)
        rep = standard_representative(t, RAT)
        nonzero = {(i, j) for i in range(t.n) for j in range(t.n)
                   if rep.mat[i][j]}
        assert nonzero <= ad.n_mask


def test_adapted_mask_sizes_closed_form():
    # m is the j groups of size d_j per block size j; n is half the rest
    for n in range(9):
        for t in enumerate_orbits(n):
            ad = adapted_parabolic(t)
            levi = sum(j * t.parts.count(j) ** 2 for j in range(1, t.r + 1))
            assert len(ad.m_mask) == levi, t
            assert len(ad.n_mask) == (n * n - levi) // 2, t


def test_cached_adapted_parabolic_matches_fresh_computation():
    for n in range(0, 11):
        for t in enumerate_orbits(n):
            assert adapted_parabolic(t) == adapted_parabolic.__wrapped__(t), t
    ad = adapted_parabolic(T(3, 1))
    assert adapted_parabolic(JordanType((3, 1))) is ad
    with pytest.raises(dataclasses.FrozenInstanceError):
        ad.u_mask = frozenset()
    assert adapted_parabolic(T(3, 1)).dim_F_uX == 4


def test_adapted_u_mask_inside_n_mask():
    for parts in [(2, 1), (3, 1), (3, 2, 1), (4, 4)]:
        ad = adapted_parabolic(T(*parts))
        assert ad.u_mask <= ad.n_mask


def test_embed_m_x_commutes_with_representative():
    for parts in [(2,), (3, 1), (2, 2, 1)]:
        t = T(*parts)
        ad = adapted_parabolic(t)
        rep = standard_representative(t, RAT)
        rng = random.Random(17)
        blocks = {}
        for j in sorted({j for (_, j, _, _) in ad.groups}):
            size = t.parts.count(j)
            blocks[j] = tuple(
                tuple(RAT.el(rng.randint(-3, 3), rng.randint(-3, 3))
                      for _ in range(size)) for _ in range(size))
        m = embed_m_x(ad, RAT, blocks)
        # m X = X sigma(m) characterizes the twisted centralizer inside M
        assert mat_eq(mat_mul(m, rep.mat),
                      mat_mul(rep.mat, mat_sigma(RAT, m)))
        nonzero = {(i, j) for i in range(t.n) for j in range(t.n)
                   if m[i][j]}
        assert nonzero <= ad.m_mask


def test_n_x_dim_oracle_examples():
    assert n_x_dim_oracle(T(1, 1, 1), RAT) == 0
    ad2 = adapted_parabolic(T(2))
    assert ad2.dim_F_sN == 2
    assert n_x_dim_oracle(T(2), RAT) == 2
    ad31 = adapted_parabolic(T(3, 1))
    assert n_x_dim_oracle(T(3, 1), RAT) == ad31.dim_F_sN - 4


def test_u_x_dimension_identity_both_models():
    for model in (RAT, F4):
        for n in range(1, 6):
            for t in enumerate_orbits(n):
                ad = adapted_parabolic(t)
                assert ad.dim_F_uX == ad.dim_F_sN - n_x_dim_oracle(t, model), t


# -- rank criterion -----------------------------------------------------------


def test_rank_criterion_p_equals_h():
    shape = standard_parabolic((2,))
    x = standard_representative(T(2), RAT)
    y = endo([[0, 0], [0, 0]])
    assert certified(shape, x, y)


def test_rank_criterion_zero_sample_fails():
    shape = standard_parabolic((1, 1))
    zero = endo([[0, 0], [0, 0]])
    assert not certified(shape, zero, zero)


def test_rank_criterion_regular_sample_passes():
    shape = standard_parabolic((1, 1))
    zero = endo([[0, 0], [0, 0]])
    y = endo([[0, 1], [0, 0]])
    assert certified(shape, zero, y)


def test_rank_criterion_support_violation():
    shape = standard_parabolic((1, 1))
    bad_x = endo([[0, 1], [0, 0]])  # supported on s_N, not s_M
    with pytest.raises(SupportViolation):
        _levi_block(shape, bad_x)


def test_rank_criterion_scale_invariant():
    shape = standard_parabolic((2, 1))
    x = blockwise_representative(shape, [T(2), T(1)], RAT)
    rng = random.Random(23)
    y = sample_s_n(shape, RAT, rng)
    base = certified(shape, x, y)
    for u in (2, 3, 7):
        scaled = TwistedEndo(RAT, 3, tuple(
            tuple(RAT.el(u) * v for v in row) for row in y.mat))
        assert certified(shape, x, scaled) == base


def _y_on_s_n(shape, model, entries):
    """Y with entries[(a, b)] at each such position of s_N, zero elsewhere."""
    return TwistedEndo(model, shape.n, tuple(
        tuple(entries.get((a, b), model.zero) for b in range(shape.n))
        for a in range(shape.n)))


@st.composite
def certificate_cases(draw):
    """(shape, X, Y): a composition of n <= 5 (often one block, so s_N is
    empty), Levi types on its blocks, and Y either sampled by sample_s_n or
    degenerate: zero, one sampled entry, or entries from {0, 1}."""
    model = draw(st.sampled_from([RAT, RAT3, F9, F4, F16]))
    n = draw(st.integers(1, 5))
    comp = (n,) if draw(st.integers(0, 4)) == 0 else draw(st.sampled_from(
        list(_all_compositions(n))))
    shape = standard_parabolic(comp)
    types = [draw(st.sampled_from(enumerate_orbits(s))) for s in comp]
    x = blockwise_representative(shape, types, model)
    rng = random.Random(draw(st.integers(0, 2**16)))
    y = sample_s_n(shape, model, rng)
    positions = sorted(shape.n_mask)
    kind = draw(st.sampled_from(["sampled", "zero", "single", "zero-one"]))
    if kind == "zero":
        y = _y_on_s_n(shape, model, {})
    elif kind == "single" and positions:
        a, b = rng.choice(positions)
        y = _y_on_s_n(shape, model, {(a, b): y.mat[a][b]})
    elif kind == "zero-one":
        y = _y_on_s_n(shape, model, {pos: model.from_int(rng.randint(0, 1))
                                     for pos in positions})
    return shape, x, y


@given(certificate_cases())
@example((standard_parabolic((3,)),
          standard_representative(T(2, 1), F16),
          TwistedEndo(F16, 3, ((F16.zero,) * 3,) * 3)))
@example((standard_parabolic((2, 1)),
          blockwise_representative(standard_parabolic((2, 1)),
                                   [T(2), T(1)], RAT),
          endo([[0, 0, 1], [0, 0, 0], [0, 0, 0]])))
@settings(max_examples=150, deadline=None)
def test_split_rank_equals_the_full_bracket_rank(case):
    # rank [p, W] = rank L_0 + rank(ker L_0 + n -> n), W = X + Y
    import tworb.parabolic as parabolic

    shape, x, y = case
    levi = parabolic._levi_block(shape, x)
    w, rank, basis = parabolic._sample_rank(x, levi, y)
    # with no basis given, one comes back exactly when W is certified
    assert (basis is None) == (rank != levi.expected)
    # W is X with Y written over n, which equals the entrywise sum
    assert w.mat == tuple(tuple(x.mat[i][j] + y.mat[i][j]
                                for j in range(x.n)) for i in range(x.n))
    assert rank == bracket_system(
        w, sorted(shape.m_mask | shape.n_mask)).rank_F()
    assert levi.rank_F == bracket_system(x, sorted(shape.m_mask)).rank_F()
    assert levi.expected == levi.rank_F + shape.dim_F_sN
    if shape.n_mask and not any(map(any, y.mat)):
        # Y = 0 leaves the second map [., X] on n, which has a kernel
        assert rank < levi.expected


@given(certificate_cases(), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_a_learned_basis_never_changes_the_rank(case, other_seed):
    # bases learned on this sample and on another, each also less one row:
    # full rank on the rows of a basis certifies, and anything short of it
    # falls back to the exact rank of every row
    import tworb.parabolic as parabolic

    shape, x, y = case
    levi = parabolic._levi_block(shape, x)
    w, rank, learned = parabolic._sample_rank(x, levi, y)
    other = sample_s_n(shape, x.model, random.Random(other_seed))
    from_other = parabolic._sample_rank(x, levi, other)[2]
    dim_n = len(levi.n_positions) * x.model.prime_dim_per_e_dim
    bases = [b for b in (learned, from_other) if b is not None]
    assert all(len(b) == dim_n for b in bases)
    bases += [b[:-1] for b in bases if b]
    for basis in bases:
        got_w, got_rank, kept = parabolic._sample_rank(x, levi, y, basis)
        assert got_w == w and got_rank == rank
        if rank == levi.expected:
            assert len(kept) == dim_n
        else:
            assert kept == basis


def test_later_trials_start_from_the_rows_that_certified(monkeypatch):
    import tworb.parabolic as parabolic

    given_bases = []
    real = parabolic._sample_rank

    def spy(x, levi, y, basis=None):
        given_bases.append(basis)
        return real(x, levi, y, basis)

    monkeypatch.setattr(parabolic, "_sample_rank", spy)
    report = verify_porb(standard_parabolic((2, 1)), zero_types((2, 1)), RAT,
                         trials=4, seed=3)
    assert report.certified_trials == 4
    first, *later = given_bases
    assert first is None and later[0] is not None
    assert all(b == later[0] for b in later)


def _levi_cases(n_max):
    """(shape, Levi types) for every composition of n <= n_max and every
    choice of a Jordan type per block."""
    for n in range(1, n_max + 1):
        for comp in _all_compositions(n):
            shape = standard_parabolic(comp)
            for types in itertools.product(*map(enumerate_orbits, comp)):
                yield shape, types


def _random_block_diagonal(shape, model, rng):
    """X in m with random entries on its diagonal blocks, a zero among
    them now and then: no standard representative."""
    def entry():
        if model.kind == "rational":
            return model.el(rng.randint(-3, 3), rng.randint(-3, 3))
        return model.random_element(rng)

    rows = [[model.zero] * shape.n for _ in range(shape.n)]
    for a, b in shape.m_mask:
        rows[a][b] = entry()
    return TwistedEndo(model, shape.n, tuple(map(tuple, rows)))


@pytest.mark.parametrize("model", [RAT, F9, F4], ids=["Q(sqrt2)", "F9", "F4"])
def test_the_levi_block_is_assembled_from_its_diagonal_blocks(model):
    # against the Levi system flattened over the whole of m: the same rank,
    # and rows - rank independent kernel vectors, each combining the m rows
    # to zero; for every Levi type with n <= 5 and for random blocks
    rng = random.Random(5)
    cases = [(shape, blockwise_representative(shape, types, model))
             for shape, types in _levi_cases(5)]
    cases += [(shape, _random_block_diagonal(shape, model, rng))
              for n in range(1, 6) for comp in _all_compositions(n)
              for shape in [standard_parabolic(comp)] for _ in range(2)]
    p = model.char
    for shape, x in cases:
        levi = _levi_block(shape, x)
        m = sorted(shape.m_mask)
        whole = bracket_system(x, m, m)
        rows = whole.rows
        assert levi.rank_F == whole.rank_and_kernel()[0]
        assert len(levi.kernel) == (len(rows)
                                    - levi.rank_F * model.subfield_degree)
        vectors = []
        for vec in levi.kernel:
            combined = [0] * len(rows[0])
            for r, c in vec:
                combined = [s + c * v for s, v in zip(combined, rows[r])]
            assert not any(v % p if p else v for v in combined), vec
            vectors.append([dict(vec).get(r, 0) for r in range(len(rows))])
        assert len(_pivot_columns(vectors, p)) == len(levi.kernel)


def test_a_levi_block_is_ranked_once_per_model(monkeypatch):
    # one block, payload for payload, over three models and a second call
    # for one of them, which returns the same object: each model ranks it
    # once, and gets the rank and kernel of its own whole-m flattening
    import tworb.parabolic as parabolic

    monkeypatch.setattr(parabolic, "_BLOCK_SYSTEMS", {})
    systems = []
    real = parabolic.bracket_system
    monkeypatch.setattr(parabolic, "bracket_system",
                        lambda *args: systems.append(args) or real(*args))
    payloads = (((0, 1), (1, 0)), ((0, 0), (0, 1)))
    shape = standard_parabolic((2,))
    m = sorted(shape.m_mask)
    kernels = []
    for spec, calls in [({"kind": "rational", "tau": 2}, 1),
                        ({"kind": "rational", "tau": 2}, 0),
                        ({"kind": "rational", "tau": 3}, 1),
                        ({"kind": "finite", "p": 3, "e": 1}, 1)]:
        model = make_extension(spec)

        def el(a, b):
            if model.kind == "rational":
                return model.el(a, b)
            return model.element_from_index(a + model.p * b)

        x = TwistedEndo(model, 2, tuple(tuple(el(*v) for v in row)
                                        for row in payloads))
        systems.clear()
        levi = parabolic._levi_block(shape, x)
        assert parabolic._levi_block(shape, x) == levi
        assert len(systems) == calls, spec
        assert (levi.rank_F, list(levi.kernel)) == \
            real(x, m, m).rank_and_kernel()
        kernels.append(levi.kernel)
    assert kernels[0] != kernels[2]  # tau enters the kernel coefficients


@pytest.mark.parametrize("model", [RAT, F9], ids=["Q(sqrt2)", "F9"])
def test_blockwise_representative_equals_its_standard_blocks(model):
    # the ones written straight into the grid, against the construction
    # that copies each block's standard representative row by row
    for shape, types in _levi_cases(5):
        n = shape.n
        want = [[model.zero] * n for _ in range(n)]
        off = 0
        for size, t in zip(shape.composition, types):
            for a, row in enumerate(standard_representative(t, model).mat):
                want[off + a][off:off + size] = row
            off += size
        got = blockwise_representative(shape, types, model)
        assert got.n == n and got.model is model
        assert all(g == w and g.model is model
                   for grow, wrow in zip(got.mat, want)
                   for g, w in zip(grow, wrow)), (shape.composition, types)


@pytest.mark.parametrize("model", [RAT, F4], ids=["Q(sqrt2)", "F4"])
def test_verify_porb_classifies_a_shared_x_once(monkeypatch, model):
    # with s_N empty every sample is X, classified once for the case; with
    # s_N nonempty every certified sample is a map of its own, classified
    import tworb.parabolic as parabolic

    classified = []
    real = parabolic.jordan_type_of
    monkeypatch.setattr(parabolic, "jordan_type_of",
                        lambda w: classified.append(w) or real(w))
    report = verify_porb(standard_parabolic((3,)), [T(2, 1)], model,
                         trials=20, seed=1)
    assert report.ok and report.certified_trials == 20
    assert report.tangent_dim_checks == 20
    assert len(classified) == 1
    classified.clear()
    report = verify_porb(standard_parabolic((2, 1)), [T(2), T(1)], model,
                         trials=20, seed=1)
    assert report.ok
    assert len(classified) == report.certified_trials > 0
    assert len({id(w) for w in classified}) == len(classified)


@pytest.mark.parametrize("model", [RAT, F4])
def test_the_n_part_of_the_certificate_is_strictly_triangular(model):
    # every W = X + Y is strictly upper triangular, so the bracket of E_ab
    # with W lies at (a, j), j > b, and (i, b), i < a, all farther from the
    # diagonal than (a, b): in the order of n_positions the image of the
    # k-th position is zero at that position and at every later one
    per = model.prime_dim_per_e_dim
    nonzero_rows = 0
    for seed, (shape, types) in enumerate(_levi_cases(6)):
        x = blockwise_representative(shape, types, model)
        y = sample_s_n(shape, model, random.Random(seed))
        w = TwistedEndo(model, shape.n, tuple(
            tuple(a + b for a, b in zip(rx, ry))
            for rx, ry in zip(x.mat, y.mat)))
        n_pos = _levi_block(shape, x).n_positions
        assert sorted(n_pos) == sorted(shape.n_mask)
        rows = bracket_system(w, n_pos, n_pos).rows
        for i, row in enumerate(rows):
            k = i // per
            assert not any(row[k * per:]), (shape.composition, types,
                                             n_pos[k])
        nonzero_rows += sum(map(any, rows))
    assert nonzero_rows > 0


@pytest.mark.parametrize("model", [RAT, F9, F16, F4])
def test_a_learned_basis_flattens_only_the_positions_it_reads(model,
                                                              monkeypatch):
    # a learned basis is compiled to read W's entries directly, so a sample
    # certified on it flattens no bracket at all; one the basis fails to
    # certify flattens the whole domain next, and either way the rank is
    # that of a basis-free call.  Over F_4 (q = 2) bases do fail.
    import tworb.parabolic as parabolic

    flattened = []
    real = parabolic.bracket_system
    monkeypatch.setattr(
        parabolic, "bracket_system",
        lambda w, dom, cod: flattened.append(len(dom)) or real(w, dom, cod))
    on_basis = fallbacks = 0
    for seed, (shape, types) in enumerate(_levi_cases(4)):
        x = blockwise_representative(shape, types, model)
        levi = parabolic._levi_block(shape, x)
        rng, basis = random.Random(seed), None
        for _ in range(6):
            y = sample_s_n(shape, model, rng)
            flattened.clear()
            w, rank, kept = parabolic._sample_rank(x, levi, y, basis)
            calls = list(flattened)
            assert rank == parabolic._sample_rank(x, levi, y)[1]
            if basis is not None and not calls:
                assert rank == levi.expected and kept == basis
                on_basis += 1
            else:
                assert calls == [len(levi.domain)]
                fallbacks += basis is not None
            basis = kept
    assert on_basis > 0
    assert fallbacks > 0 or model is not F4


def _basis_system(levi, w, basis):
    """The rows ``basis`` of W's second map, written out from
    bracket_system over the whole domain and the Levi kernel vectors."""
    per = w.model.prime_dim_per_e_dim
    split = len(levi.n_positions) * per
    rows = bracket_system(w, levi.domain, levi.n_positions).rows
    kept = []
    for r in basis:
        if r < split:
            kept.append(list(rows[r]))
            continue
        acc = [0] * split
        for k, c in levi.kernel[r - split]:
            acc = [s + c * v for s, v in zip(acc, rows[split + k])]
        kept.append(acc)
    return FLinearSystem(tuple(kept), w.model.char)


@pytest.mark.parametrize("model", [RAT, RAT3, RAT_2_3, F4, F9, F16])
def test_a_compiled_basis_fills_the_transpose_of_its_rows(model):
    # for a learned basis and for that basis less one row, the compiled T
    # of a later sample is the transpose of the basis rows flattened
    # through bracket_system, apart from all-zero rows, mod p over F_p and
    # up to a positive scale per row over Q (where T's rows are scaled to
    # clear denominators), and its pivot columns are the greedy basis of
    # those rows
    import tworb.parabolic as parabolic

    p = model.char

    def on_its_ray(row):
        if p:
            return [v % p for v in row]
        mult = math.lcm(*(Fraction(v).denominator for v in row))
        ints = [int(v * mult) for v in row]
        g = math.gcd(*ints)
        return [v // g for v in ints] if g else ints

    def nonzero_rows(rows):
        return [r for r in map(on_its_ray, rows) if any(r)]

    checked = with_kernel_rows = with_fractions = 0
    for seed, (shape, types) in enumerate(_levi_cases(4)):
        x = blockwise_representative(shape, types, model)
        levi = parabolic._levi_block(shape, x)
        rng = random.Random(seed)
        learned = None
        for _ in range(10):
            learned = parabolic._sample_rank(
                x, levi, sample_s_n(shape, model, rng))[2]
            if learned is not None:
                break
        assert learned is not None
        y = sample_s_n(shape, model, rng)
        samples = [y]
        if not p:  # and one whose entries on n are Fractions
            half = model.el(Fraction(1, 2))
            samples.append(TwistedEndo(model, shape.n, tuple(
                tuple(v * half for v in row) for row in y.mat)))
        split = len(levi.n_positions) * model.prime_dim_per_e_dim
        with_kernel_rows += any(r >= split for r in learned)
        for y, basis in itertools.product(samples, (learned, learned[:-1])):
            w = parabolic._sample_rank(x, levi, y)[0]
            system = _basis_system(levi, w, basis)
            t = parabolic._basis_transpose(
                parabolic._compile_basis(x, levi, basis), w)
            assert nonzero_rows(t) == nonzero_rows(zip(*system.rows)), (
                shape.composition, types, basis)
            fractions = any(type(v) is Fraction for r in t for v in r)
            assert not fractions or y is not samples[0]
            with_fractions += fractions
            assert tuple(_pivot_columns(t, p)) == system.basis_rows()
            checked += 1
    assert checked > 0 and with_kernel_rows > 0
    assert (with_fractions > 0) == (p == 0)


def test_verify_porb_compiles_its_basis_once(monkeypatch):
    import tworb.parabolic as parabolic

    compiled = []
    real = parabolic._compile_basis
    monkeypatch.setattr(
        parabolic, "_compile_basis",
        lambda x, levi, basis: compiled.append(basis) or real(x, levi, basis))
    report = verify_porb(standard_parabolic((2, 1)), zero_types((2, 1)), RAT,
                         trials=20, seed=1)
    assert report.ok and report.certified_trials == 20
    assert len(compiled) == 1


def test_each_basis_is_compiled_once_per_case(monkeypatch):
    # over F_4 bases fail and are replaced, so a case can use several; each
    # is compiled on its first use in the case and never again
    import tworb.parabolic as parabolic

    compiled, used, case = [], set(), None
    real_compile, real_rank = parabolic._compile_basis, parabolic._sample_rank

    def spy_rank(x, levi, y, basis=None):
        if basis is not None:
            used.add((case, basis))
        return real_rank(x, levi, y, basis)

    monkeypatch.setattr(
        parabolic, "_compile_basis",
        lambda x, levi, basis: compiled.append(1) or real_compile(x, levi,
                                                                  basis))
    monkeypatch.setattr(parabolic, "_sample_rank", spy_rank)
    for case, (shape, types) in enumerate(_levi_cases(4)):
        verify_porb(shape, types, F4, trials=20, seed=case)
    assert len(compiled) == len(used)
    assert len(used) > case + 1  # some case replaced a failing basis


def test_induce_compiles_nothing_when_its_first_sample_certifies(
        monkeypatch):
    import tworb.parabolic as parabolic

    compiled = []
    real = parabolic._compile_basis
    monkeypatch.setattr(
        parabolic, "_compile_basis",
        lambda x, levi, basis: compiled.append(basis) or real(x, levi, basis))
    report = induce_orbit_report(standard_parabolic((2, 1)),
                                 zero_types((2, 1)), RAT, seed=1)
    assert report.trials_used == 1 and compiled == []


# -- induction ----------------------------------------------------------------


def test_induce_p_equals_h_returns_block_type():
    shape = standard_parabolic((3,))
    assert induce_orbit_report(shape, [T(2, 1)], RAT).induced_type == T(2, 1)


def test_induce_borel_gives_regular():
    shape = standard_parabolic((1, 1, 1))
    report = induce_orbit_report(shape, zero_types((1, 1, 1)), RAT)
    assert report.induced_type == T(3)


def test_induce_richardson_21():
    shape = standard_parabolic((2, 1))
    report = induce_orbit_report(shape, zero_types((2, 1)), RAT)
    assert report.induced_type == T(2, 1)


def test_induce_report_statistics():
    shape = standard_parabolic((1, 1))
    rep = induce_orbit_report(shape, zero_types((1, 1)), RAT, seed=0)
    assert rep.induced_type == T(2)
    assert rep.trials_used >= 1 and rep.rejected == rep.trials_used - 1


def test_induce_shape_mismatch():
    shape = standard_parabolic((2, 1))
    with pytest.raises(ShapeMismatch):
        induce_orbit_report(shape, [T(2)], RAT)
    with pytest.raises(ShapeMismatch):
        induce_orbit_report(shape, [T(3), T(1)], RAT)


def test_induce_finite_model_large_q():
    shape = standard_parabolic((1, 1, 1))
    report = induce_orbit_report(shape, zero_types((1, 1, 1)), F101, seed=4)
    assert report.induced_type == T(3)


def test_richardson_rule_small_multi_seed():
    for n in range(1, 5):
        for comp in _all_compositions(n):
            shape = standard_parabolic(comp)
            expected = richardson_dual(comp)
            for seed in range(3):
                got = induce_orbit_report(shape, zero_types(comp), RAT,
                                          seed=seed).induced_type
                assert got == expected, (comp, seed)


def test_verify_porb_vacuous_and_sampled():
    shape_h = standard_parabolic((2,))
    report = verify_porb(shape_h, [T(2)], RAT, trials=5, seed=1)
    assert report.ok and report.induced_type == T(2)
    assert report.certified_trials == 5 and report.failures == 0

    shape = standard_parabolic((1, 1))
    report = verify_porb(shape, zero_types((1, 1)), RAT, trials=20, seed=2)
    assert report.ok
    assert report.induced_type == T(2)
    assert report.tangent_dim_checks == report.certified_trials


def test_verify_porb_21():
    shape = standard_parabolic((2, 1))
    report = verify_porb(shape, zero_types((2, 1)), RAT, trials=20, seed=3)
    assert report.ok and report.induced_type == T(2, 1)
    assert isinstance(report, PorbReport)
    payload = report.to_json()
    assert payload["induced_type"] == [2, 1]
    assert payload["certified_trials"] == report.certified_trials


def test_verify_porb_fails_on_a_constant_wrong_type(monkeypatch):
    # a classifier that answers one wrong type every time keeps
    # constant_type true; the orbit-dimension identity must catch it
    import tworb.parabolic as parabolic

    shape = standard_parabolic((2, 1))
    good = verify_porb(shape, zero_types((2, 1)), RAT, trials=10, seed=3)
    assert good.ok and good.tangent_dim_checks == good.certified_trials > 0
    monkeypatch.setattr(parabolic, "jordan_type_of", lambda y: T(1, 1, 1))
    bad = verify_porb(shape, zero_types((2, 1)), RAT, trials=10, seed=3)
    assert bad.constant_type and bad.certified_trials == good.certified_trials
    assert bad.tangent_dim_checks == 0
    assert not bad.ok


def test_verify_porb_fails_on_a_wrong_shape_of_the_right_dimension(
        monkeypatch):
    # (3,1,1,1) has the orbit dimension of (2,2,2), the row sum of two zero
    # types of size 3, so only the Lusztig-Spaltenstein shape tells them apart
    import tworb.parabolic as parabolic

    shape, types = standard_parabolic((3, 3)), zero_types((3, 3))
    assert induced_row_sum(types) == T(2, 2, 2)
    assert orbit_dimension(T(3, 1, 1, 1)) == orbit_dimension(T(2, 2, 2))
    good = verify_porb(shape, types, RAT, trials=2, seed=1)
    assert good.ok and good.induced_type == T(2, 2, 2)
    monkeypatch.setattr(parabolic, "jordan_type_of", lambda y: T(3, 1, 1, 1))
    bad = verify_porb(shape, types, RAT, trials=2, seed=1)
    assert bad.constant_type
    assert bad.tangent_dim_checks == bad.certified_trials > 0
    assert not bad.ok
    assert bad.to_json()["types_seen"] == [[3, 1, 1, 1]]


def test_only_a_failing_porb_case_lists_the_types_seen(monkeypatch):
    import tworb.parabolic as parabolic

    shape, types = standard_parabolic((2, 1)), zero_types((2, 1))
    good = verify_porb(shape, types, RAT, trials=10, seed=3)
    assert good.ok and "types_seen" not in good.to_json()
    answers = itertools.cycle([T(2, 1), T(1, 1, 1)])
    monkeypatch.setattr(parabolic, "jordan_type_of", lambda y: next(answers))
    bad = verify_porb(shape, types, RAT, trials=10, seed=3)
    assert not bad.constant_type and not bad.ok
    payload = bad.to_json()
    assert payload["types_seen"] == [[2, 1], [1, 1, 1]]
    assert list(payload) == [*good.to_json(), "types_seen", "rejected_trials"]


def test_only_a_failing_porb_case_lists_its_rejected_trials(monkeypatch):
    import tworb.parabolic as parabolic

    shape, types = standard_parabolic((2, 1)), zero_types((2, 1))
    good = verify_porb(shape, types, RAT, trials=6, seed=3)
    assert good.ok and good.failures == 0
    real, calls = parabolic._sample_rank, itertools.count()

    def short_on_odd_trials(*args):
        w, rank, basis = real(*args)
        return w, rank - next(calls) % 2, basis

    monkeypatch.setattr(parabolic, "_sample_rank", short_on_odd_trials)
    passing = verify_porb(shape, types, RAT, trials=6, seed=3)
    assert passing.ok and passing.rejected_trials == [1, 3, 5]
    assert passing.failures == 3 and passing.certified_trials == 3
    assert "rejected_trials" not in passing.to_json()
    monkeypatch.setattr(parabolic, "jordan_type_of", lambda y: T(1, 1, 1))
    failing = verify_porb(shape, types, RAT, trials=6, seed=3)
    assert not failing.ok
    payload = failing.to_json()
    assert payload["failures"] == 3 and payload["rejected_trials"] == [1, 3, 5]


def test_verify_porb_draws_trials_samples_and_ranks_the_levi_once(
        monkeypatch):
    import tworb.parabolic as parabolic

    samples, levi_ranks = [], []
    real_sample, real_levi = parabolic.sample_s_n, parabolic._levi_block
    monkeypatch.setattr(
        parabolic, "sample_s_n",
        lambda *args: samples.append(1) or real_sample(*args))
    monkeypatch.setattr(
        parabolic, "_levi_block",
        lambda *args: levi_ranks.append(1) or real_levi(*args))
    report = verify_porb(standard_parabolic((2, 1)), [T(2), T(1)], RAT,
                         trials=7, seed=4)
    assert report.ok and report.trials == 7
    assert len(samples) == 7
    assert len(levi_ranks) == 1


@pytest.mark.parametrize("model", [RAT, F9], ids=["Q(sqrt2)", "F9"])
def test_a_one_block_case_multiplies_out_x_once(monkeypatch, model):
    # s_N is empty, so every sample is X, and X's memoized powers P_1, P_2
    # serve all 20 classifications: 2 products, not 40
    import tworb.linalg as linalg

    products = []
    real = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul",
                        lambda a, b: products.append(1) or real(a, b))
    report = verify_porb(standard_parabolic((3,)), [T(2, 1)], model,
                         trials=20, seed=1)
    assert report.ok and report.certified_trials == 20
    assert report.induced_type == T(2, 1)
    assert len(products) == 2


@pytest.mark.parametrize("model", [RAT, F9], ids=["Q(sqrt2)", "F9"])
def test_only_an_empty_s_n_shares_x_as_the_sample(model):
    # with n nonempty each W is a new map, and classifying the certified
    # ones leaves X's memo untouched; with n empty W is X itself
    from tworb.orbits import jordan_type_of
    from tworb.parabolic import _ranked_samples

    for comp, types, shared in [((2, 1), [T(2), T(1)], False),
                                ((1, 2, 1), zero_types((1, 2, 1)), False),
                                ((3,), [T(2, 1)], True)]:
        shape = standard_parabolic(comp)
        x = blockwise_representative(shape, types, model)
        levi = _levi_block(shape, x)
        samples, classified = [], 0
        for w, rank in _ranked_samples(shape, x, levi, 5, 20):
            if rank == levi.expected:
                assert jordan_type_of(w) == induced_row_sum(types)
                classified += 1
            samples.append(w)
        assert len(samples) == 20 and classified > 10
        if shared:
            assert all(w is x for w in samples)
            assert x._powers
        else:
            assert len({id(w) for w in samples} | {id(x)}) == 21
            assert x._powers == ()


def test_verify_porb_checks_the_orbit_dimension_once_per_type(monkeypatch):
    # once per Levi type for the induced dimension, then once per type seen;
    # tangent_dim_checks still counts the certified trials one by one
    import tworb.parabolic as parabolic

    shape, types = standard_parabolic((2, 1)), zero_types((2, 1))
    dims = []
    real = parabolic.orbit_dimension
    monkeypatch.setattr(parabolic, "orbit_dimension",
                        lambda t: dims.append(t) or real(t))
    good = verify_porb(shape, types, RAT, trials=10, seed=3)
    assert good.ok and good.certified_trials > 1
    assert dims == [*types, T(2, 1)]
    assert good.tangent_dim_checks == good.certified_trials
    dims.clear()
    answers = itertools.cycle([T(2, 1), T(1, 1, 1)])
    monkeypatch.setattr(parabolic, "jordan_type_of", lambda y: next(answers))
    bad = verify_porb(shape, types, RAT, trials=10, seed=3)
    assert dims == [*types, T(2, 1), T(1, 1, 1)]
    assert bad.tangent_dim_checks == (bad.certified_trials + 1) // 2


def test_verify_porb_tangent_dim_check_can_fail(monkeypatch):
    # Levi dimensions shifted so the induced dimension is off by 2: every
    # certified sample then fails the check, and the case is not ok
    import tworb.parabolic as parabolic

    shape, types = standard_parabolic((2, 1)), zero_types((2, 1))
    good = verify_porb(shape, types, RAT, trials=10, seed=3)
    assert good.ok and good.tangent_dim_checks == good.certified_trials > 0
    real = parabolic.orbit_dimension

    def shifted(t):
        inv = real(t)
        if t != types[1]:
            return inv
        return dataclasses.replace(inv, dim_orbit_F=inv.dim_orbit_F + 2)

    monkeypatch.setattr(parabolic, "orbit_dimension", shifted)
    bad = verify_porb(shape, types, RAT, trials=10, seed=3)
    assert bad.certified_trials == good.certified_trials
    assert bad.induced_type == good.induced_type == induced_row_sum(types)
    assert bad.tangent_dim_checks == 0 and not bad.ok
    assert not bad.to_json()["tangent_dim_checks"]


def test_induced_row_sum():
    assert induced_row_sum([T(2, 1), T(1, 1, 1), T(3)]) == T(6, 2, 1)
    assert induced_row_sum([T(1)]) == T(1)
    for n in range(1, 6):
        for comp in _all_compositions(n):  # Richardson: zero Levi types
            assert induced_row_sum(zero_types(comp)) == richardson_dual(comp)


def test_genericity_failure_surfaces():
    shape = standard_parabolic((1, 1))
    # with zero trials allowed nothing can certify
    with pytest.raises(GenericityFailure):
        induce_orbit_report(shape, zero_types((1, 1)), RAT, max_trials=0)


def test_genericity_failure_names_the_ranks(monkeypatch):
    # Y = 0 leaves [p, X + Y] = [p, 0] = 0 against dim_F s_N = 2, and the
    # Levi part dim_F [m, X] is ranked once for all trials
    import tworb.parabolic as parabolic

    calls = []
    real = parabolic._levi_block
    monkeypatch.setattr(parabolic, "_levi_block",
                        lambda shape, x: calls.append(1) or real(shape, x))
    monkeypatch.setattr(parabolic, "sample_s_n",
                        lambda shape, model, rng: endo([[0, 0], [0, 0]]))
    with pytest.raises(GenericityFailure) as failure:
        induce_orbit_report(standard_parabolic((1, 1)), zero_types((1, 1)),
                            RAT, max_trials=3)
    message = str(failure.value)
    assert "expected rank 2" in message
    assert "got ranks [0, 0, 0]" in message
    assert len(calls) == 1


# -- flag point-count oracle --------------------------------------------------


def test_flag_counts_q2():
    # counts over E = F_4: regular types give a single fixed flag, the zero
    # map fixes every flag
    assert flag_fixed_count(standard_representative(T(2), F4)) == 1
    assert flag_fixed_count(standard_representative(T(1, 1), F4)) == 5
    assert flag_fixed_count(standard_representative(T(2, 1), F4)) == 9
    assert flag_fixed_count(standard_representative(T(1, 1, 1), F4)) == 105
    assert flag_fixed_count(standard_representative(T(3), F4)) == 1
    # n = 4: the zero map fixes all 85 * 21 * 5 complete flags of E^4
    for parts, count in [((4,), 1), ((3, 1), 13), ((2, 2), 45),
                         ((2, 1, 1), 285), ((1, 1, 1, 1), 8925)]:
        assert flag_fixed_count(
            standard_representative(T(*parts), F4)) == count, parts


def test_flag_counts_over_f16():
    # E = F_16 (e = 2): the zero map of E^3 fixes its 273 * 17 flags
    assert flag_fixed_count(standard_representative(T(1, 1, 1), F16)) == 4641


def test_flag_count_inverts_only_pivots_that_are_not_one(monkeypatch):
    # each step is tested by mat_rank, whose elimination takes no inverse,
    # so the flag count inverts no pivot at all
    import tworb.fields as fields

    inverted = []
    real = fields.ExtElement.inverse

    def spy(self):
        inverted.append(self)
        return real(self)

    monkeypatch.setattr(fields.ExtElement, "inverse", spy)
    assert flag_fixed_count(standard_representative(T(1, 1, 1), F4)) == 105
    assert inverted == []


def test_flag_counts_over_an_odd_prime():
    # E = F_9: the zero map of E^2 fixes its Q + 1 = 10 lines; on
    # (2, 1) the fixed flags number 2Q + 1 = 19
    assert flag_fixed_count(standard_representative(T(2), F9)) == 1
    assert flag_fixed_count(standard_representative(T(1, 1), F9)) == 10
    assert flag_fixed_count(standard_representative(T(2, 1), F9)) == 19


@functools.lru_cache(maxsize=None)
def _supersets(model, n, sub):
    """The subspaces of E^n one dimension above ``sub``, each a frozenset
    of vectors: sub plus the multiples of one vector outside it, with no
    vector taken from a superspace found before."""
    elems = list(model.elements())
    found = []
    for w in itertools.product(elems, repeat=n):
        if w not in sub and not any(w in v for v in found):
            found.append(frozenset(
                tuple(a + c * b for a, b in zip(u, w))
                for u in sub for c in elems))
    return tuple(found)


def _stable_flags_by_subspaces(y):
    """Complete flags of E^n with every step stable under v -> Y sigma(v),
    counted with no elimination: each step is a frozenset of vectors, and
    it is stable when it holds the image of each of its vectors."""
    model, n = y.model, y.n
    zero = model.zero
    images = {}

    def image(v):
        if v not in images:
            sv = [model.sigma(x) for x in v]
            images[v] = tuple(sum((a * b for a, b in zip(row, sv)), zero)
                              for row in y.mat)
        return images[v]

    def count_from(sub, dim):
        if dim == n - 1:
            return 1
        return sum(count_from(v, dim + 1)
                   for v in _supersets(model, n, sub)
                   if all(image(u) in v for u in v))

    return count_from(frozenset([(zero,) * n]), 0)


@pytest.mark.parametrize("model", [F4, F9], ids=["F4", "F9"])
def test_flag_count_matches_subspace_enumeration(model):
    # seeded random maps, nilpotent (a conjugate of each standard
    # representative) and not, off the standard flag
    rng = random.Random(26)
    for n in (1, 2, 3):
        maps = []
        for t in enumerate_orbits(n):
            while True:
                h = tuple(tuple(model.random_element(rng) for _ in range(n))
                          for _ in range(n))
                try:
                    maps.append(sigma_conjugate(
                        h, standard_representative(t, model)))
                    break
                except SingularMatrix:
                    pass
        while len(maps) < len(enumerate_orbits(n)) + 2:
            y = TwistedEndo(model, n, tuple(
                tuple(model.random_element(rng) for _ in range(n))
                for _ in range(n)))
            if not is_nilpotent(y):
                maps.append(y)
        for y in maps:
            assert flag_fixed_count(y) == _stable_flags_by_subspaces(y), y


def test_flag_count_degree_matches_springer_dim():
    Q = 4
    for n in range(1, 4):
        for t in enumerate_orbits(n):
            count = flag_fixed_count(standard_representative(t, F4))
            dim_e = orbit_dimension(t).springer_dim_F // 2
            assert Q**dim_e <= count < Q ** (dim_e + 1), t
