"""Twisted matrix operations and the exact F-linear solver."""

import dataclasses
import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (SingularMatrix, alternating_product, flatten_map,
                     from_prime_rows, mat_inv, mat_mul_naive, sigma_conjugate,
                     twisted_bracket)

from tworb.cli import _all_compositions
from tworb.fields import make_extension
from tworb.linalg import (NotNilpotent, TwistedEndo, _pivot_columns,
                          _primitive, bracket_system, is_nilpotent, mat_eq,
                          mat_from_rows, mat_identity, mat_mul, mat_rank,
                          mat_sigma, reduce_row, row_echelon, twisted_power)
from tworb.orbits import (JordanType, enumerate_orbits, jordan_type_of,
                          standard_representative)
from tworb.parabolic import standard_parabolic

RAT = make_extension({"kind": "rational", "tau": 2})
RAT3 = make_extension({"kind": "rational", "tau": 3})
F9 = make_extension({"kind": "finite", "p": 3, "e": 1})
F4 = make_extension({"kind": "finite", "p": 2, "e": 1})
F16 = make_extension({"kind": "finite", "p": 2, "e": 2})
# a non-integral radicand, sampled with Fraction payload entries
RAT32 = make_extension({"kind": "rational", "tau": "3/2"})


def endo(rows, model=RAT):
    return TwistedEndo.from_rows(model, rows)


Y_REG = endo([[0, 1], [0, 0]])


def test_twisted_power_base_cases():
    y = endo([[1, 2], [3, 4]])
    assert mat_eq(twisted_power(y, 0), mat_identity(RAT, 2))
    assert mat_eq(twisted_power(y, 1), y.mat)


def test_twisted_power_regular_nilpotent():
    # direct multiplication: Y sigma(Y) = Y^2 = 0 for real entries
    p2 = twisted_power(Y_REG, 2)
    assert all(not x for row in p2 for x in row)


def test_twisted_power_alternates():
    r2 = RAT.gen
    y = endo([[r2, 0], [0, 1]])
    # P_3 = Y sigma(Y) Y
    p3 = mat_mul(mat_mul(y.mat, mat_sigma(RAT, y.mat)), y.mat)
    assert mat_eq(twisted_power(y, 3), p3)


def test_sigma_conjugate_identity():
    h = mat_identity(RAT, 2)
    assert mat_eq(sigma_conjugate(h, Y_REG).mat, Y_REG.mat)


def test_sigma_conjugate_scalar():
    # h = u * id gives (u / sigma(u)) * Y
    u = RAT.el(1, 1)
    h = tuple(tuple(u if i == j else RAT.zero for j in range(2))
              for i in range(2))
    got = sigma_conjugate(h, Y_REG)
    factor = u / RAT.sigma(u)
    assert got.mat[0][1] == factor
    assert not got.mat[0][0] and not got.mat[1][0] and not got.mat[1][1]


def test_sigma_conjugate_preserves_rank_sequence():
    rng = random.Random(5)
    for _ in range(10):
        h = tuple(tuple(RAT.el(rng.randint(-4, 4), rng.randint(-4, 4))
                        for _ in range(2)) for _ in range(2))
        try:
            conj = sigma_conjugate(h, Y_REG)
        except SingularMatrix:
            continue
        ranks = [mat_rank(twisted_power(conj, k)) for k in range(3)]
        assert ranks == [2, 1, 0]
        assert jordan_type_of(conj) == jordan_type_of(Y_REG)


def test_sigma_conjugate_singular():
    h = tuple(tuple(RAT.zero for _ in range(2)) for _ in range(2))
    with pytest.raises(SingularMatrix):
        sigma_conjugate(h, Y_REG)


def test_twisted_power_transforms_covariantly():
    # P_k(h Y sigma(h)^-1) = h P_k(Y) sigma^k(h)^-1
    rng = random.Random(12)
    y = endo([[RAT.el(1, 1), RAT.el(0, 2)], [RAT.el(3), RAT.el(-1, 1)]])
    for _ in range(5):
        h = tuple(tuple(RAT.el(rng.randint(-4, 4), rng.randint(-4, 4))
                        for _ in range(2)) for _ in range(2))
        try:
            conj = sigma_conjugate(h, y)
        except SingularMatrix:
            continue
        for k in range(4):
            sk_h = h
            for _ in range(k):
                sk_h = mat_sigma(RAT, sk_h)
            expected = mat_mul(mat_mul(h, twisted_power(y, k)),
                               mat_inv(sk_h))
            assert mat_eq(twisted_power(conj, k), expected)


def test_twisted_bracket_identity_is_zero():
    z = mat_identity(RAT, 2)
    out = twisted_bracket(z, Y_REG)
    assert all(not x for row in out for x in row)


def test_twisted_bracket_sqrt_tau_scalar():
    # [sqrt(tau) id, Y] = 2 sqrt(tau) Y since sigma flips the sign
    r2 = RAT.gen
    z = tuple(tuple(r2 if i == j else RAT.zero for j in range(2))
              for i in range(2))
    out = twisted_bracket(z, Y_REG)
    expected = RAT.el(0, 2)
    assert out[0][1] == expected and not out[0][0]


def test_twisted_bracket_zero_target():
    zero = endo([[0, 0], [0, 0]])
    z = tuple(tuple(RAT.el(3, -1) for _ in range(2)) for _ in range(2))
    out = twisted_bracket(z, zero)
    assert all(not x for row in out for x in row)


def test_is_nilpotent_cases():
    assert is_nilpotent(endo([[0, 0], [0, 0]]))
    assert not is_nilpotent(endo([[1, 0], [0, 1]]))
    upper = endo([[0, RAT.el(2, 3), RAT.el(0, 1)],
                  [0, 0, RAT.el(-1, 5)],
                  [0, 0, 0]])
    assert is_nilpotent(upper)


def _is_zero(mat):
    return all(not x for row in mat for x in row)


@pytest.mark.parametrize("model", [F4, F9], ids=["F4", "F9"])
def test_power_n_vanishes_iff_power_2n_does(model):
    rng = random.Random(2024)
    n, nilpotent = 3, 0
    for _ in range(2000):
        y = TwistedEndo(model, n, tuple(
            tuple(model.random_element(rng) for _ in range(n))
            for _ in range(n)))
        at_n = _is_zero(twisted_power(y, n))
        # P_2n built afresh: the memo would return a zero P_n for P_2n
        assert at_n == _is_zero(alternating_product(y, 2 * n))
        assert is_nilpotent(y) == at_n
        nilpotent += at_n
    # the sample holds nilpotents, so both directions are exercised
    assert nilpotent > 0


@pytest.mark.parametrize("model", [RAT, F9], ids=["Q(sqrt2)", "F3"])
@pytest.mark.parametrize("n", range(1, 7))
def test_regular_representative_vanishes_exactly_at_power_n(model, n):
    y = standard_representative(JordanType((n,)), model)
    assert not _is_zero(twisted_power(y, n - 1))
    assert _is_zero(twisted_power(y, n))
    assert is_nilpotent(y)


# -- memoized twisted powers -------------------------------------------------


@st.composite
def power_requests(draw):
    """A map, nilpotent or not, and powers k in [0, 2n] in drawn order."""
    model = draw(st.sampled_from([RAT, F9, F16]))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["drawn", "strictly upper", "representative"]))
    if kind == "representative":
        y = standard_representative(draw(st.sampled_from(enumerate_orbits(n))),
                                    model)
    else:
        rows = draw(e_matrices(model, n, n))
        if kind == "strictly upper":  # nilpotent
            rows = [[x if j > i else model.zero for j, x in enumerate(r)]
                    for i, r in enumerate(rows)]
        y = TwistedEndo(model, n, tuple(tuple(r) for r in rows))
    return y, draw(st.lists(st.integers(0, 2 * n), min_size=1, max_size=6))


@given(power_requests())
@settings(max_examples=120, deadline=None)
def test_memoized_powers_match_uncached_products(case):
    y, ks = case
    for k in ks:
        got = twisted_power(y, k)
        assert [len(r) for r in got] == [y.n] * y.n
        assert mat_eq(got, alternating_product(y, k)), k


@pytest.mark.parametrize("model", [RAT, F9, F16],
                         ids=["Q(sqrt2)", "F3", "F16"])
def test_powers_past_the_first_zero_are_n_by_n_zero(model):
    for t in enumerate_orbits(4):
        y = standard_representative(t, model)
        assert not _is_zero(twisted_power(y, t.r - 1))
        for k in range(2 * t.n, t.r - 1, -1):  # the zero is cached first
            p = twisted_power(y, k)
            assert [len(r) for r in p] == [4] * 4 and _is_zero(p)


def test_threads_sharing_a_map_read_only_true_powers():
    # check-then-publish without a lock: a lost update can only cost a
    # product made twice, never a wrong or short power
    rng = random.Random(5)
    maps = [TwistedEndo(F16, 4, tuple(
        tuple(_random_entry(F16, rng) for _ in range(4)) for _ in range(4)))
        for _ in range(3)] + [standard_representative(JordanType((3, 1)), F9)]
    expected = {id(y): [alternating_product(y, k) for k in range(9)]
                for y in maps}
    wrong = []

    def work(seed):
        order = random.Random(seed)
        for y in maps:
            for k in order.sample(range(9), 9):
                if twisted_power(y, k) != expected[id(y)][k]:
                    wrong.append((seed, k))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_a_stale_low_power_never_shrinks_the_memo(monkeypatch):
    # a caller that read the empty memo publishes P_1 only after a
    # classification's is_nilpotent has filled the memo to P_r: the memo
    # must keep P_r, or jordan_type_of would rank too few powers
    import tworb.linalg as linalg
    import tworb.orbits as orbits

    y = standard_representative(JordanType((3, 1)), RAT)
    started, resume = threading.Event(), threading.Event()
    real_mul, real_nilpotent = linalg.mat_mul, orbits.is_nilpotent
    stale = threading.Thread(target=twisted_power, args=(y, 1))

    def mat_mul(a, b):
        if threading.current_thread() is stale:
            started.set()
            resume.wait(timeout=60)
        return real_mul(a, b)

    def is_nilpotent(z):
        held = real_nilpotent(z)
        resume.set()
        stale.join(timeout=60)
        return held

    monkeypatch.setattr(linalg, "mat_mul", mat_mul)
    monkeypatch.setattr(orbits, "is_nilpotent", is_nilpotent)
    stale.start()
    assert started.wait(timeout=60)
    assert jordan_type_of(y) == JordanType((3, 1))
    assert not stale.is_alive() and len(y._powers) == 4


@pytest.fixture
def products(monkeypatch):
    """The mat_mul calls made, counted through linalg's own name."""
    import tworb.linalg as linalg

    calls = []
    real = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul",
                        lambda a, b: calls.append(1) or real(a, b))
    return calls


def test_cached_powers_leave_equality_hash_and_replace_alone(products):
    y = standard_representative(JordanType((3, 1)), RAT)
    fresh = TwistedEndo(RAT, y.n, y.mat)
    twisted_power(y, 4)
    assert len(products) == 3 and y._sigma_mat == mat_sigma(RAT, y.mat)
    assert y == fresh and hash(y) == hash(fresh) and repr(y) == repr(fresh)
    # a copy, equal or not, starts with no powers and no sigma(Y) of its own
    products.clear()
    copy = dataclasses.replace(y)
    assert copy._powers == () and copy._sigma_mat is None
    twisted_power(copy, 2)
    twisted_power(fresh, 2)
    assert len(products) == 4
    other = dataclasses.replace(y, n=2, mat=endo([[1, RAT.gen], [1, 0]]).mat)
    assert other._sigma_mat is None
    assert twisted_power(other, 3) == alternating_product(other, 3)


@pytest.mark.parametrize("model", [RAT, RAT3, F4, F9, F16],
                         ids=["Q(sqrt2)", "Q(sqrt3)", "F4", "F9", "F16"])
def test_right_multiplied_powers_equal_the_alternating_product(model):
    # P_(k+1) = P_k sigma^k(Y) against Y sigma(Y) Y ... multiplied out
    # afresh, for every k <= n + 1, on maps that vanish and maps that don't
    rng = random.Random(61)
    not_nilpotent = 0
    for n in range(1, 6):
        for upper in (False, True) * 3:
            y = TwistedEndo(model, n, tuple(
                tuple(_random_entry(model, rng) if j > i or not upper
                      else model.zero for j in range(n)) for i in range(n)))
            for k in range(n + 2):
                assert twisted_power(y, k) == alternating_product(y, k), k
            not_nilpotent += not is_nilpotent(y)
    assert not_nilpotent > 0


def test_powers_asked_up_then_down_reuse_the_memo(products, monkeypatch):
    import tworb.linalg as linalg

    sigmas = []
    real = linalg.mat_sigma
    monkeypatch.setattr(linalg, "mat_sigma",
                        lambda *args: sigmas.append(1) or real(*args))
    y = endo([[RAT.gen, 1, 0], [0, 1, 2], [3, 0, 1]])
    assert not is_nilpotent(y)
    assert len(products) == 3 and len(sigmas) == 2  # sigma(I), sigma(Y)
    for k in range(6):
        assert twisted_power(y, k) == alternating_product(y, k)
    # P_1 .. P_5, and sigma(Y) made once for every odd step
    assert len(products) == 5 and len(sigmas) == 2
    for k in range(5, -1, -1):
        assert twisted_power(y, k) == alternating_product(y, k)
    assert len(products) == 5 and len(sigmas) == 2


def test_jordan_type_ranks_the_powers_is_nilpotent_made(products):
    for model in (RAT, F16):
        for t in enumerate_orbits(5):
            products.clear()
            assert jordan_type_of(standard_representative(t, model)) == t
            assert len(products) == t.r, t
    # an idempotent line plus a nilpotent part: no power ever vanishes
    y = endo([[1, 0, 0], [0, 0, 1], [0, 0, 0]])
    products.clear()
    with pytest.raises(NotNilpotent):
        jordan_type_of(y)
    assert len(products) == 0  # tr(Y sigma(Y)) = 1 rejects it first


# -- the trace prefilter of is_nilpotent -------------------------------------


def _trace_of_y_sigma_y(y):
    """tr(Y sigma(Y)) from the full product, no entry skipped."""
    n_mat = mat_mul_naive(y.model, y.mat, mat_sigma(y.model, y.mat))
    return sum((n_mat[i][i] for i in range(1, y.n)), n_mat[0][0])


def _check_prefilter(maps, products):
    """is_nilpotent against P_n = 0 on each map, with the products it made.

    A nonzero trace must make no product, and a map that is not
    nilpotent but passes the trace must make all n of them.  Returns the
    counts of (nonzero trace, zero trace but not nilpotent, nilpotent).
    """
    counts = [0, 0, 0]
    for rows in maps:
        n = len(rows)
        y = TwistedEndo(rows[0][0].model, n, rows)
        nilpotent = _is_zero(alternating_product(y, n))  # no memo, no mat_mul
        products.clear()
        assert is_nilpotent(y) == nilpotent
        if _trace_of_y_sigma_y(y):
            assert not nilpotent and len(products) == 0
            counts[0] += 1
        elif not nilpotent:
            assert len(products) == n
            counts[1] += 1
        else:
            counts[2] += 1
    return counts


@pytest.mark.parametrize("model, rejected", [(F4, 120), (F9, 4320)],
                         ids=["F4", "F9"])
def test_trace_prefilter_is_exact_on_every_2x2_map(products, model,
                                                    rejected):
    elements = list(model.elements())
    maps = [(row0, row1) for row0 in itertools.product(elements, repeat=2)
            for row1 in itertools.product(elements, repeat=2)]
    counts = _check_prefilter(maps, products)
    # Q^(n(n-1)) nilpotents (Fine-Herstein), for Q = 4 and Q = 9
    assert counts[0] == rejected and counts[2] == len(elements) ** 2


def _small_entry(model, rng):
    """Over Q(sqrt 2) a short list of entries, whose norms and traces
    cancel often enough to give maps of trace 0 that are not nilpotent."""
    if model is RAT:
        return rng.choice([RAT.zero, RAT.one, -RAT.one, RAT.gen, -RAT.gen])
    return model.random_element(rng)


@pytest.mark.parametrize("model", [F4, F16, RAT],
                         ids=["F4", "F16", "Q(sqrt2)"])
def test_trace_prefilter_is_exact_on_seeded_3x3_maps(products, model):
    rng = random.Random(19)
    n = 3
    maps = []
    if model is RAT:  # from test_powers_asked_up_then_down_reuse_the_memo
        maps.append(endo([[RAT.gen, 1, 0], [0, 1, 2], [3, 0, 1]]).mat)
    for _ in range(150):
        maps.append(tuple(tuple(_small_entry(model, rng) for _ in range(n))
                          for _ in range(n)))
    for _ in range(30):  # nilpotents with entries on both sides of the diagonal
        upper = TwistedEndo(model, n, tuple(
            tuple(_small_entry(model, rng) if j > i else model.zero
                  for j in range(n)) for i in range(n)))
        h = tuple(tuple(_small_entry(model, rng) for _ in range(n))
                  for _ in range(n))
        try:
            maps.append(sigma_conjugate(h, upper).mat)
        except SingularMatrix:
            pass
    counts = _check_prefilter(maps, products)
    assert all(counts), counts


def test_integral_rational_products_keep_int_payloads():
    rng = random.Random(3)
    a = endo([[RAT.el(rng.randint(-5, 5), rng.randint(-5, 5))
               for _ in range(3)] for _ in range(3)])
    b = endo([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
    for mat in (mat_mul(a.mat, b.mat), twisted_power(a, 4)):
        assert all(type(c) is int
                   for row in mat for x in row for c in x.payload)
    assert all(type(c) is int for row in bracket_system(a).rows for c in row)


def test_kernel_dim_examples():
    zero_map = from_prime_rows(
        [[Fraction(0)] * 3 for _ in range(3)], char=0)
    assert zero_map.kernel_dim_F() == 3
    ident = from_prime_rows(
        [[1 if i == j else 0 for j in range(4)] for i in range(4)], char=0)
    assert ident.kernel_dim_F() == 0


def test_kernel_dim_of_regular_bracket_is_4():
    # the map Z -> [Z, Y_reg] on gl_2(E) = F^8; nullity 4 by row reduction
    system = bracket_system(Y_REG)
    assert len(system.rows) == 8 and {len(r) for r in system.rows} == {8}
    assert system.kernel_dim_F() == 4
    assert system.rank_F() + system.kernel_dim_F() == len(system.rows)


def test_rank_plus_nullity_finite_model():
    y = TwistedEndo.from_rows(F9, [[0, 1], [0, 0]])
    system = bracket_system(y)
    assert system.rank_F() + system.kernel_dim_F() == 8
    assert system.kernel_dim_F() == 4


def test_kernel_dim_counts_domain_rows_in_F_dimensions():
    # over F_16 with F = F_4 (e = 2) each E-position spans 4 prime rows,
    # so gl_2(E) has 16 rows but F-dimension 8; the regular nilpotent's
    # centralizer has F-dimension 4, as over F_9
    system = bracket_system(TwistedEndo.from_rows(F16, [[0, 1], [0, 0]]))
    assert len(system.rows) == 16
    assert system.kernel_dim_F() == len(system.rows) // 2 - system.rank_F()
    assert system.kernel_dim_F() == 4
    # a subspace and a codomain of one position each: E_12 -> E_12 is zero
    corner = bracket_system(TwistedEndo.from_rows(F16, [[0, 1], [0, 0]]),
                            [(0, 1)], [(0, 1)])
    assert corner.rank_F() == 0 and corner.kernel_dim_F() == 2


def _random_entry(model, rng):
    if model is RAT32:
        return model.el(*(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(2)))
    if model.kind == "rational":
        return model.el(rng.randint(-3, 3), rng.randint(-3, 3))
    return model.random_element(rng)


def _sparse_y(model, n, rng):
    """Y with one zero row and one zero column, every other diagonal entry
    nonzero and about half of the remaining entries nonzero: positions
    (a, b) with Y[a][a] and Y[b][b] both nonzero get both bracket terms."""
    zero_row, zero_col = rng.sample(range(n), 2)
    rows = [[model.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == zero_row or j == zero_col:
                continue
            if i == j or rng.random() < 0.5:
                while not rows[i][j]:
                    rows[i][j] = _random_entry(model, rng)
    return TwistedEndo(model, n, tuple(tuple(r) for r in rows))


def test_bracket_system_matches_generic_flattener():
    rng = random.Random(9)
    for model in (RAT, RAT32, F9, F16):
        for k in range(8):
            if k % 2:
                n = rng.randint(3, 4)
                y = _sparse_y(model, n, rng)
            else:
                n = rng.randint(1, 4)
                y = TwistedEndo(model, n, tuple(
                    tuple(_random_entry(model, rng) for _ in range(n))
                    for _ in range(n)))
            everything = [(i, j) for i in range(n) for j in range(n)]
            shape = standard_parabolic(rng.choice(list(_all_compositions(n))))
            # None is every position, the default
            spans = (None, sorted(shape.m_mask), sorted(shape.n_mask),
                     sorted(shape.m_mask | shape.n_mask))
            for domain, codomain in itertools.product(spans, spans):
                fast = bracket_system(y, domain, codomain)
                slow = flatten_map(model, n,
                                   everything if domain is None else domain,
                                   lambda z: twisted_bracket(z, y), codomain)
                assert fast.rows == slow.rows


def test_twisted_powers_belong_to_the_endos_own_model_object():
    # two equal models from separate calls: an identity cache keyed by model
    # equality would hand the second map P_0 entries of the first model
    for spec in ({"kind": "rational", "tau": 2}, {"kind": "finite", "p": 3}):
        models = make_extension(spec), make_extension(spec)
        assert models[0] == models[1] and models[0] is not models[1]
        for model in models:
            y = endo([[0, 1, 2], [0, 0, 1], [0, 0, 0]], model)
            for k in range(5):
                assert all(x.model is y.model
                           for row in twisted_power(y, k) for x in row)


def test_mat_inv_round_trip():
    h = tuple(tuple(RAT.el(a, b) for (a, b) in row) for row in
              [[(1, 1), (0, 2)], [(3, 0), (1, -1)]])
    hinv = mat_inv(h)
    assert mat_eq(mat_mul(h, hinv), mat_identity(RAT, 2))


def _pivots_fraction_gauss(rows):
    """Independent oracle: the pivot columns of plain Gaussian elimination
    over Q."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
    return pivots


def _rank_fraction_gauss(rows):
    return len(_pivots_fraction_gauss(rows))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_bareiss_rank_matches_fraction_gauss(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
    if rng.random() < 0.5 and nr > 1:  # force rank deficiency sometimes
        k = rng.randrange(1, nr)
        rows[k] = [2 * x for x in rows[0]]
    assert _pivot_columns([r[:] for r in rows], 0) == \
        _pivots_fraction_gauss(rows)


@st.composite
def int_matrices(draw):
    """Small integer matrices, often rank deficient, often with rows that
    are zero in a later pivot column."""
    nr = draw(st.integers(min_value=1, max_value=6))
    nc = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-5, max_value=5)
    rows = [draw(st.lists(entry, min_size=nc, max_size=nc))
            for _ in range(nr)]
    # zero a column below its first row: later pivots meet zero entries
    col = draw(st.integers(min_value=0, max_value=nc - 1))
    for r in rows[1:]:
        if draw(st.booleans()):
            r[col] = 0
    # replace some rows by integer combinations of the others
    for k in range(1, nr):
        if draw(st.booleans()):
            c1, c2 = draw(entry), draw(entry)
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            rows[k] = [c1 * x + c2 * y for x, y in zip(rows[i], rows[j])]
    return draw(st.permutations(rows))


@given(int_matrices())
# rank 2: the second row is zero in the first pivot column
@example([[2, 4, 1], [0, 0, 3], [1, 2, 5], [3, 6, 0]])
@settings(max_examples=200, deadline=None)
def test_bareiss_rank_matches_fraction_gauss_on_drawn_matrices(rows):
    assert _pivot_columns([r[:] for r in rows], 0) == \
        _pivots_fraction_gauss(rows)


def test_integral_fraction_rows_reach_bareiss_as_ints():
    # x * x.inverse() leaves payloads such as Fraction(1, 1); rows of them,
    # like rows of non-integral Fractions, enter the elimination as they
    # are, and every row it updates, so every kernel vector, is ints
    ints = [[1, 2, 3], [2, 4, 6], [0, 1, 5], [1, 3, 8]]
    for scale in (1, Fraction(1), Fraction(2, 3)):
        fracs = [[Fraction(x) * scale for x in r] for r in ints]
        system = from_prime_rows(fracs, char=0)
        assert system.rank_F() == 2 and system.basis_rows() == (0, 2)
        rank, kernel = system.rank_and_kernel()
        assert rank == 2 and len(kernel) == 2
        for vec in kernel:
            assert all(type(c) is int for _, c in vec)
            assert not any(sum(c * fracs[i][j] for i, c in vec)
                           for j in range(3))
    assert from_prime_rows(ints, char=0).rank_F() == 2


@pytest.mark.parametrize("row", [
    [4, -6, 10], [-3, 0, 9], [0, 0, -7], [1, -1],
    [Fraction(2), Fraction(-4)], [Fraction(1), 3, Fraction(0)],
    [Fraction(1, 2), Fraction(-3, 4), 5], [Fraction(-2, 3), Fraction(4, 9)],
    [0, 0, 0], [Fraction(0), Fraction(0)], []])
def test_primitive_row_is_the_int_row_on_the_same_ray(row):
    got = _primitive(list(row))
    assert len(got) == len(row) and all(type(x) is int for x in got)
    if not any(row):
        assert got == [0] * len(row)
        return
    # one positive multiplier takes row to got, and got has content 1
    k = next(j for j, x in enumerate(row) if x)
    mult = Fraction(got[k]) / Fraction(row[k])
    assert mult > 0 and all(g == mult * x for g, x in zip(got, row))
    assert math.gcd(*got) == 1


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(small_fracs, small_fracs, st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_bracket_is_F_linear_in_Z(a, b, seed):
    rng = random.Random(seed)
    z1 = tuple(tuple(RAT.el(rng.randint(-3, 3), rng.randint(-3, 3))
                     for _ in range(2)) for _ in range(2))
    z2 = tuple(tuple(RAT.el(rng.randint(-3, 3), rng.randint(-3, 3))
                     for _ in range(2)) for _ in range(2))
    av, bv = RAT.el(a), RAT.el(b)
    combo = tuple(tuple(av * x + bv * y for x, y in zip(r1, r2))
                  for r1, r2 in zip(z1, z2))
    lhs = twisted_bracket(combo, Y_REG)
    b1 = twisted_bracket(z1, Y_REG)
    b2 = twisted_bracket(z2, Y_REG)
    rhs = tuple(tuple(av * x + bv * y for x, y in zip(r1, r2))
                for r1, r2 in zip(b1, b2))
    assert mat_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# the exact kernels against plain reference versions


def _rank_by_inverses(a):
    """Gaussian elimination that scales each pivot row by its inverse."""
    rows = [list(r) for r in a]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _elements(model):
    """Mostly zero entries; small integral and fractional ones over Q."""
    if model is RAT:
        coord = st.one_of(st.integers(-4, 4),
                          st.fractions(-2, 2, max_denominator=3))
        nonzero = st.builds(RAT.el, coord, coord)
    else:
        nonzero = st.integers(0, model.element_count() - 1).map(
            model.element_from_index)
    return st.one_of(st.just(model.zero), st.just(model.zero), nonzero)


@st.composite
def e_matrices(draw, model, nrows, ncols):
    """Matrices over E with zero rows and rows that are E-combinations of
    earlier rows."""
    el = _elements(model)
    rows = [draw(st.lists(el, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for k in range(nrows):
        kind = draw(st.sampled_from(["drawn", "zero", "combination"]))
        if kind == "zero":
            rows[k] = [model.zero] * ncols
        elif kind == "combination" and k:
            c1, c2 = draw(el), draw(el)
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            rows[k] = [c1 * x + c2 * y for x, y in zip(rows[i], rows[j])]
    return tuple(tuple(r) for r in draw(st.permutations(rows)))


@st.composite
def mat_mul_operands(draw):
    model = draw(st.sampled_from([RAT, F9]))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    a = draw(e_matrices(model, n, k))
    if draw(st.integers(0, 5)) == 0:
        a = tuple((model.zero,) * k for _ in range(n))
    return model, a, draw(e_matrices(model, k, m))


@given(mat_mul_operands())
# 3 x 2 with two zero rows times 2 x 3; a zero left factor; 1 x 2 times 2 x 1
@example((RAT, mat_from_rows(RAT, [[0, 0], [1, (0, 1)], [0, 0]]),
          mat_from_rows(RAT, [[1, 0, (0, 1)], [(0, 1), 1, 0]])))
@example((F9, mat_from_rows(F9, [[0, 0, 0]]),
          mat_from_rows(F9, [[1, 2, 0], [0, 1, 1], [2, 2, 2]])))
@example((RAT, mat_from_rows(RAT, [[1, (0, 1)]]),
          mat_from_rows(RAT, [[(0, 1)], [1]])))
@settings(max_examples=200, deadline=None)
def test_mat_mul_matches_triple_loop(operands):
    model, a, b = operands
    got = mat_mul(a, b)
    assert [len(r) for r in got] == [len(b[0])] * len(a)
    assert mat_eq(got, mat_mul_naive(model, a, b))


@st.composite
def rank_operands(draw):
    model = draw(st.sampled_from([RAT, F9]))
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(e_matrices(model, nrows, ncols))


@given(rank_operands())
# the first row is zero in the first pivot column: the pivot row moves up
@example(mat_from_rows(RAT, [[0, 0, 1], [1, 0, 0], [1, 1, 0]]))
@example(mat_from_rows(F9, [[0, 1, 1], [0, 0, 0], [2, 1, 0], [2, 2, 1]]))
@settings(max_examples=240, deadline=None)
def test_mat_rank_matches_inverse_elimination(a):
    assert mat_rank(a) == _rank_by_inverses(a)


def test_mat_rank_takes_no_inverse(monkeypatch):
    import tworb.fields as fields

    a = tuple(tuple(RAT.el(3 * i + j, i - 2 * j) for j in range(4))
              for i in range(4)) + ((RAT.el(1, 1),) * 4,)
    want = _rank_by_inverses(a)

    def no_inverse(self):
        raise AssertionError("mat_rank took an inverse")

    monkeypatch.setattr(fields.ExtElement, "inverse", no_inverse)
    # rational elements inherit inverse, so the patch reaches them
    assert type(a[0][0]).inverse is no_inverse
    assert mat_rank(a) == want


# ---------------------------------------------------------------------------
# the reduced row-echelon form: the key of a span, and mat_inv

ECHELON_MODELS = [RAT, F9, F16]


def _units(model):
    if model is RAT:
        coord = st.one_of(st.integers(-4, 4),
                          st.fractions(-2, 2, max_denominator=3))
        return st.builds(RAT.el, coord, coord).filter(bool)
    return st.integers(1, model.element_count() - 1).map(
        model.element_from_index)


def _assert_reduced_echelon(form):
    leads = [next(j for j, x in enumerate(r) if x) for r in form]
    assert leads == sorted(set(leads))
    for k, (lead, row) in enumerate(zip(leads, form)):
        assert row[lead] == row[lead].model.one
        assert not any(other[lead] for i, other in enumerate(form) if i != k)


@st.composite
def regenerated_spans(draw):
    """Generators of a span over Q(sqrt 2), F_9 or F_16, and the same
    span's generators shuffled, each scaled by a unit, plus one more
    E-combination of them."""
    model = draw(st.sampled_from(ECHELON_MODELS))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = draw(e_matrices(model, nrows, ncols))
    el = _elements(model)
    order = draw(st.permutations(range(nrows)))
    again = [tuple(c * x for x in rows[i])
             for i, c in zip(order, draw(st.lists(
                 _units(model), min_size=nrows, max_size=nrows)))]
    extra = [model.zero] * ncols
    for r in rows:
        c = draw(el)
        extra = [x + c * y for x, y in zip(extra, r)]
    again.insert(draw(st.integers(0, nrows)), tuple(extra))
    return rows, tuple(again)


@given(regenerated_spans())
@example((mat_from_rows(RAT, [[0, 2, 4], [1, 0, 1], [1, 1, 3]]),
          mat_from_rows(RAT, [[1, 1, 3], [0, (0, 1), (0, 2)], [3, 0, 3]])))
@example((mat_from_rows(F9, [[2, 1], [1, 2]]),
          mat_from_rows(F9, [[1, 2], [0, 0], [1, 2]])))
@settings(max_examples=200, deadline=None)
def test_row_echelon_is_a_key_of_the_span(spans):
    rows, again = spans
    form = row_echelon(rows)
    _assert_reduced_echelon(form)
    assert len(form) == mat_rank(rows)
    assert row_echelon(again) == form
    assert hash(row_echelon(again)) == hash(form)


@st.composite
def rows_against_spans(draw):
    """A matrix over Q(sqrt 2), F_9 or F_16 and a row, half the time an
    E-combination of its rows."""
    model = draw(st.sampled_from(ECHELON_MODELS))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = draw(e_matrices(model, nrows, ncols))
    el = _elements(model)
    if draw(st.booleans()):
        row = [model.zero] * ncols
        for r in rows:
            c = draw(el)
            row = [x + c * y for x, y in zip(row, r)]
    else:
        row = draw(st.lists(el, min_size=ncols, max_size=ncols))
    return rows, tuple(row)


@given(rows_against_spans())
# a multiple of the pivot row, and over F_9 a multiple by 2 = -1
@example((mat_from_rows(RAT, [[2, 4], [0, 0]]),
          mat_from_rows(RAT, [[3, 6]])[0]))
@example((mat_from_rows(F9, [[0, 2, 1]]), mat_from_rows(F9, [[0, 1, 2]])[0]))
@settings(max_examples=200, deadline=None)
def test_reduced_row_is_zero_exactly_inside_the_span(case):
    rows, row = case
    form = row_echelon(rows)
    assert any(reduce_row(form, row)) == \
        (mat_rank(rows + (row,)) > mat_rank(rows))
    # each row of the form is zero in the other rows' leading columns
    for k, b in enumerate(form):
        assert reduce_row(form[:k] + form[k + 1:], b) == list(b)


@st.composite
def square_matrices(draw):
    """Square matrices over Q(sqrt 2), F_9 or F_16: half of them rows
    permuted from L * U, L lower unitriangular and U upper triangular
    with units on its diagonal, hence invertible; the others mostly
    singular."""
    model = draw(st.sampled_from(ECHELON_MODELS))
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return model, draw(e_matrices(model, n, n))
    el, unit = _elements(model), _units(model)
    lower = [[model.one if i == j else draw(el) if j < i else model.zero
              for j in range(n)] for i in range(n)]
    upper = [[draw(unit) if i == j else draw(el) if j > i else model.zero
              for j in range(n)] for i in range(n)]
    a = mat_mul(tuple(map(tuple, lower)), tuple(map(tuple, upper)))
    return model, tuple(draw(st.permutations(a)))


@given(square_matrices())
# invertible and upper triangular: only back-substitution clears column 1
@example((RAT, mat_from_rows(RAT, [[2, 1], [0, 1]])))
# the first pivot is found and the last is missing
@example((RAT, mat_from_rows(RAT, [[1, 2], [2, 4]])))
@example((F16, mat_from_rows(F16, [[0, 1, 0], [0, 0, 1], [0, 1, 1]])))
@example((F9, mat_from_rows(F9, [[0, 1], [1, 0]])))
@settings(max_examples=200, deadline=None)
def test_mat_inv_round_trips_or_raises_singular(case):
    model, a = case
    n = len(a)
    if mat_rank(a) < n:
        with pytest.raises(SingularMatrix):
            mat_inv(a)
        return
    inv = mat_inv(a)
    assert mat_eq(mat_mul(a, inv), mat_identity(model, n))
    assert mat_eq(mat_mul(inv, a), mat_identity(model, n))


@st.composite
def sparse_int_matrices(draw):
    """Mostly zero integer matrices up to 8 x 8, with rows that are
    integer combinations of earlier rows."""
    nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(0), st.just(0),
                      st.integers(-40, 40))
    rows = [draw(st.lists(entry, min_size=nc, max_size=nc))
            for _ in range(nr)]
    for k in range(1, nr):
        if draw(st.booleans()):
            c1, c2 = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            rows[k] = [c1 * x + c2 * y for x, y in zip(rows[i], rows[j])]
    return draw(st.permutations(rows))


@given(sparse_int_matrices())
@example([[0, 6, 0], [0, 4, 2], [0, 0, 0], [0, 2, 1]])
@settings(max_examples=300, deadline=None)
def test_rank_int_matches_fraction_gauss_on_sparse_matrices(rows):
    assert _pivot_columns([r[:] for r in rows], 0) == \
        _pivots_fraction_gauss(rows)


def _rank_mod_p_gauss(rows, p):
    """Independent oracle: Gauss-Jordan elimination over F_p."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _f4_block(v):
    """Multiplication by a + b x on F_4 = F_2[x]/(x^2 + x + 1), as the
    2 x 2 matrix over F_2 in the basis (1, x): x * x = 1 + x."""
    a, b = v & 1, v >> 1
    return [[a, b], [b, a ^ b]]


@st.composite
def prime_systems(draw):
    """(rows, char, subfield_degree): wide or tall matrices with zero rows,
    zero columns and dependent rows, over Q (ints and Fractions), over
    F_p, or F_4-linear over F_2 (subfield_degree 2)."""
    kind = draw(st.sampled_from(["Q", "F_p", "F_4 over F_2"]))
    nr, nc = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    if kind == "Q":
        entry = st.one_of(st.just(0), st.integers(-9, 9),
                          st.fractions(-3, 3, max_denominator=5))
    elif kind == "F_p":
        char = draw(st.sampled_from([2, 3, 5, 7]))
        entry = st.integers(-9, 9)  # reduced mod p by the system
    else:
        entry = st.integers(0, 3)  # a + b x
    rows = [draw(st.lists(entry, min_size=nc, max_size=nc))
            for _ in range(nr)]
    if kind != "F_4 over F_2":
        for k in range(1, nr):
            if draw(st.booleans()):
                c1, c2 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
                i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
                rows[k] = [c1 * x + c2 * y for x, y in zip(rows[i], rows[j])]
    for i in draw(st.sets(st.integers(0, nr - 1), max_size=nr - 1)):
        rows[i] = [0] * nc
    for j in draw(st.sets(st.integers(0, nc - 1), max_size=nc - 1)):
        for r in rows:
            r[j] = 0
    if kind == "Q":
        return rows, 0, 1
    if kind == "F_p":
        return rows, char, 1
    return ([[blk[s][t] for v in r for blk in [_f4_block(v)] for t in (0, 1)]
             for r in rows for s in (0, 1)], 2, 2)


@given(prime_systems())
# only the last transposed row is nonzero
@example(([[0, 0, 5], [0, 0, 0]], 0, 1))
@example(([[0, 3], [0, 0], [1, 0]], 3, 1))
@example(([[0, 0, 1, 1], [0, 0, 1, 0]], 2, 2))
@settings(max_examples=300, deadline=None)
def test_rank_F_matches_oracles(case):
    rows, char, e = case
    want = (_rank_fraction_gauss(rows) if char == 0
            else _rank_mod_p_gauss(rows, char))
    assert want % e == 0
    assert from_prime_rows(rows, char=char, subfield_degree=e).rank_F() == \
        want // e


@given(prime_systems())
@example(([[0, 0, 5], [0, 0, 0], [1, 0, 0], [2, 0, 10]], 0, 1))
@example(([[0, 3], [0, 0], [1, 0]], 3, 1))
@settings(max_examples=300, deadline=None)
def test_basis_rows_are_the_greedy_basis(case):
    # each chosen row raises the rank of the rows up to it, no other does
    rows, char, e = case

    def oracle(m):
        return (_rank_fraction_gauss(m) if char == 0
                else _rank_mod_p_gauss(m, char))

    want = [i for i in range(len(rows))
            if oracle(rows[:i + 1]) > oracle(rows[:i])]
    assert from_prime_rows(
        rows, char=char, subfield_degree=e).basis_rows() == tuple(want)


def test_kept_basis_leaves_equality_hash_and_replace_alone(monkeypatch):
    import tworb.linalg as linalg

    eliminations = []
    real = linalg._rank
    monkeypatch.setattr(linalg, "_rank",
                        lambda *a: eliminations.append(1) or real(*a))
    system = from_prime_rows([[1, 2], [2, 4], [0, 1]], char=0)
    fresh = from_prime_rows([[1, 2], [2, 4], [0, 1]], char=0)
    assert system.rank_F() == 2 and system.basis_rows() == (0, 2)
    assert len(eliminations) == 1  # rank_F and basis_rows share one
    assert system == fresh and hash(system) == hash(fresh)
    assert repr(system) == repr(fresh)
    assert dataclasses.replace(system)._basis is None
    assert dataclasses.replace(system, rows=((1, 2), (0, 0)))._basis is None


@given(prime_systems())
@example(([[0, 0, 5], [0, 0, 0]], 0, 1))
@example(([[0, 3], [0, 0], [1, 0]], 3, 1))
@example(([[0, 0, 1, 1], [0, 0, 1, 0]], 2, 2))
@settings(max_examples=300, deadline=None)
def test_kernel_from_rank_is_a_basis_of_the_annihilators(case):
    # rows - rank integer vectors, each weighting the rows to exactly zero
    # (mod p over F_p), and independent by the Gauss oracles
    rows, char, e = case

    def oracle(m):
        return (_rank_fraction_gauss(m) if char == 0
                else _rank_mod_p_gauss(m, char))

    system = from_prime_rows(rows, char=char, subfield_degree=e)
    rank, kernel = system.rank_and_kernel()
    assert rank == system.rank_F() and rank * e == oracle(rows)
    assert len(kernel) == len(rows) - rank * e
    dense = []
    for vec in kernel:
        assert all(type(c) is int and c for _, c in vec)
        dense.append([0] * len(rows))
        for i, c in vec:
            dense[-1][i] = c
        for col in zip(*rows):
            total = sum(c * x for c, x in zip(dense[-1], col))
            assert (total % char if char else total) == 0
    if kernel:
        assert oracle(dense) == len(kernel)
