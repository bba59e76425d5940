"""Parabolic masks, the rank certificate, induction, and the flag oracle."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import embed_m_x

from tworb.cli import _all_compositions
from tworb.fields import make_extension
from tworb.linalg import (TwistedEndo, bracket_system, mat_eq, mat_mul,
                          mat_sigma)
from tworb.orbits import (JordanType, enumerate_orbits, orbit_dimension,
                          standard_representative)
from tworb.parabolic import (BadComposition, GenericityFailure, PorbReport,
                             ShapeMismatch, SupportViolation,
                             adapted_parabolic, blockwise_representative,
                             flag_fixed_count, induce_orbit,
                             induce_orbit_report, induced_row_sum,
                             n_x_dim_oracle, rank_criterion, richardson_dual,
                             sample_s_n, standard_parabolic, verify_porb)

RAT = make_extension({"kind": "rational", "tau": 2})
RAT3 = make_extension({"kind": "rational", "tau": 3})
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
            levi = sum(j * t.d(j) ** 2 for j in range(1, t.r + 1))
            assert len(ad.m_mask) == levi, t
            assert len(ad.n_mask) == (n * n - levi) // 2, t


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
            size = t.d(j)
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
    assert rank_criterion(shape, x, y)


def test_rank_criterion_zero_sample_fails():
    shape = standard_parabolic((1, 1))
    zero = endo([[0, 0], [0, 0]])
    assert not rank_criterion(shape, zero, zero)


def test_rank_criterion_regular_sample_passes():
    shape = standard_parabolic((1, 1))
    zero = endo([[0, 0], [0, 0]])
    y = endo([[0, 1], [0, 0]])
    assert rank_criterion(shape, zero, y)


def test_rank_criterion_support_violation():
    shape = standard_parabolic((1, 1))
    bad_x = endo([[0, 1], [0, 0]])  # supported on s_N, not s_M
    with pytest.raises(SupportViolation):
        rank_criterion(shape, bad_x, endo([[0, 0], [0, 0]]))
    bad_y = endo([[1, 0], [0, 0]])
    with pytest.raises(SupportViolation):
        rank_criterion(shape, endo([[0, 0], [0, 0]]), bad_y)


def test_rank_criterion_scale_invariant():
    shape = standard_parabolic((2, 1))
    x = blockwise_representative(shape, [T(2), T(1)], RAT)
    rng = random.Random(23)
    y = sample_s_n(shape, RAT, rng)
    base = rank_criterion(shape, x, y)
    for u in (2, 3, 7):
        scaled = TwistedEndo(RAT, 3, tuple(
            tuple(RAT.el(u) * v for v in row) for row in y.mat))
        assert rank_criterion(shape, x, scaled) == base


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
    w, rank = parabolic._sample_rank(x, levi, y)
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


# -- induction ----------------------------------------------------------------


def test_induce_p_equals_h_returns_block_type():
    shape = standard_parabolic((3,))
    assert induce_orbit(shape, [T(2, 1)], RAT) == T(2, 1)


def test_induce_borel_gives_regular():
    shape = standard_parabolic((1, 1, 1))
    assert induce_orbit(shape, zero_types((1, 1, 1)), RAT) == T(3)


def test_induce_richardson_21():
    shape = standard_parabolic((2, 1))
    assert induce_orbit(shape, zero_types((2, 1)), RAT) == T(2, 1)


def test_induce_report_statistics():
    shape = standard_parabolic((1, 1))
    rep = induce_orbit_report(shape, zero_types((1, 1)), RAT, seed=0)
    assert rep.induced_type == T(2)
    assert rep.trials_used >= 1 and rep.rejected == rep.trials_used - 1


def test_induce_shape_mismatch():
    shape = standard_parabolic((2, 1))
    with pytest.raises(ShapeMismatch):
        induce_orbit(shape, [T(2)], RAT)
    with pytest.raises(ShapeMismatch):
        induce_orbit(shape, [T(3), T(1)], RAT)


def test_induce_finite_model_large_q():
    shape = standard_parabolic((1, 1, 1))
    assert induce_orbit(shape, zero_types((1, 1, 1)), F101, seed=4) == T(3)


def test_richardson_rule_small_multi_seed():
    for n in range(1, 5):
        for comp in _all_compositions(n):
            shape = standard_parabolic(comp)
            expected = richardson_dual(comp)
            for seed in range(3):
                got = induce_orbit(shape, zero_types(comp), RAT, seed=seed)
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
        w, rank = real(*args)
        return w, rank - next(calls) % 2

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
        induce_orbit(shape, zero_types((1, 1)), RAT, max_trials=0)


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
    # row_echelon runs on an echelon basis plus one vector with a leading
    # one, zero at the basis pivots, so every pivot it meets is one and
    # none is inverted
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


def test_flag_count_degree_matches_springer_dim():
    Q = 4
    for n in range(1, 4):
        for t in enumerate_orbits(n):
            count = flag_fixed_count(standard_representative(t, F4))
            dim_e = orbit_dimension(t).springer_dim_F // 2
            assert Q**dim_e <= count < Q ** (dim_e + 1), t
