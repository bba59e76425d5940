"""Orbit catalog: classification, representatives, dimensions, census."""

import dataclasses
import random

import pytest
from oracles import (SingularMatrix, sigma_conjugate, split_parts,
                     split_type_of)

from tworb.fields import make_extension
from tworb.linalg import NotNilpotent, TwistedEndo, mat_rank
from tworb.orbits import (BudgetExceeded, JordanType, centralizer_dim_oracle,
                          check_dimHY, enumerate_orbits, gl_order,
                          jordan_type_of, level_sizes, orbit_census,
                          orbit_dimension, stabilizer_order,
                          standard_representative)

RAT = make_extension({"kind": "rational", "tau": 2})
F4 = make_extension({"kind": "finite", "p": 2, "e": 1})
F9 = make_extension({"kind": "finite", "p": 3, "e": 1})


def T(*parts):
    return JordanType(tuple(parts))


def test_jordan_type_validation():
    with pytest.raises(ValueError):
        JordanType((1, 2))
    with pytest.raises(ValueError):
        JordanType((0,))
    t = T(3, 1)
    assert t.n == 4 and t.r == 3 and t.multiplicities() == {1: 1, 2: 0, 3: 1}
    assert t.dual() == T(2, 1, 1)
    assert t.to_json() == [3, 1]


def test_multiplicities_match_counting():
    # every partition with n <= 10, the empty type (n = 0) included
    for n in range(0, 11):
        for t in enumerate_orbits(n):
            def count(j):
                return sum(1 for p in t.parts if p == j)

            assert list(t.multiplicities().items()) == \
                [(j, count(j)) for j in range(1, t.r + 1)]


def test_enumerate_orbits_counts_and_order():
    assert [t.parts for t in enumerate_orbits(2)] == [(2,), (1, 1)]
    assert enumerate_orbits(0) == [JordanType(())]
    assert len(enumerate_orbits(5)) == 7  # p(5) by enumeration
    # canonical order: descending lexicographic on part lists
    seq = [t.parts for t in enumerate_orbits(5)]
    assert seq == sorted(seq, reverse=True)


def _naive_partition_count(n):
    # independent oracle: recursive enumeration with explicit recursion
    def count(rest, maxpart):
        if rest == 0:
            return 1
        return sum(count(rest - p, p) for p in range(min(rest, maxpart), 0, -1))

    return count(n, n)


def test_partition_counts_small():
    for n in range(0, 9):
        assert len(enumerate_orbits(n)) == _naive_partition_count(n)


def test_standard_representative_matrices():
    rep2 = standard_representative(T(2), RAT)
    assert [[int(bool(x)) for x in row] for row in rep2.mat] == \
        [[0, 1], [0, 0]]
    rep11 = standard_representative(T(1, 1), RAT)
    assert all(not x for row in rep11.mat for x in row)
    rep21 = standard_representative(T(2, 1), RAT)
    ones = [(i, j) for i in range(3) for j in range(3) if rep21.mat[i][j]]
    assert ones == [(0, 2)]


@pytest.mark.parametrize("model", [RAT, F9], ids=["Q(sqrt2)", "F9"])
def test_standard_representative_equals_its_from_rows_matrix(model):
    # the shifted identity blocks, built as ints by level offsets and read
    # through from_rows, against the representative entry for entry
    for n in range(1, 8):
        for t in enumerate_orbits(n):
            sizes = level_sizes(t)
            rows = [[0] * n for _ in range(n)]
            for i in range(1, len(sizes)):
                for c in range(sizes[i]):
                    rows[sum(sizes[:i - 1]) + c][sum(sizes[:i]) + c] = 1
            want = TwistedEndo.from_rows(model, rows)
            got = standard_representative(t, model)
            assert got == want and got.model is model
            assert all(x == w and x.model is model
                       for row, wrow in zip(got.mat, want.mat)
                       for x, w in zip(row, wrow))


def test_jordan_type_of_examples():
    zero = TwistedEndo.from_rows(RAT, [[0] * 3 for _ in range(3)])
    assert jordan_type_of(zero) == T(1, 1, 1)
    assert jordan_type_of(standard_representative(T(2), RAT)) == T(2)
    generic = TwistedEndo.from_rows(
        RAT, [[0, RAT.el(1, 1), RAT.el(2, 0)],
              [0, 0, RAT.el(0, 3)],
              [0, 0, 0]])
    assert jordan_type_of(generic) == T(3)


@pytest.mark.parametrize("model", [RAT, F9], ids=["Q(sqrt2)", "F9"])
def test_jordan_type_ranks_only_the_nonzero_powers(monkeypatch, model):
    # P_0 = I has rank n and the first zero power rank 0, so a map of type
    # lambda takes lambda_1 - 1 eliminations, none of them of a zero matrix:
    # on the representative and on a sigma-conjugate with dense powers
    import tworb.orbits as orbits

    ranked = []
    real = orbits.mat_rank
    monkeypatch.setattr(orbits, "mat_rank",
                        lambda a: ranked.append(a) or real(a))
    rng = random.Random(11)
    for n in range(1, 6):
        for t in enumerate_orbits(n):
            rep = standard_representative(t, model)
            while True:
                h = tuple(tuple(
                    model.el(rng.randint(-5, 5), rng.randint(-5, 5))
                    if model.kind == "rational" else model.random_element(rng)
                    for _ in range(n)) for _ in range(n))
                try:
                    conj = sigma_conjugate(h, rep)
                    break
                except SingularMatrix:
                    continue
            for y in (rep, conj):
                ranked.clear()
                assert jordan_type_of(y) == t
                assert len(ranked) == t.r - 1, t
                assert all(any(map(any, a)) for a in ranked), t


def test_jordan_type_requires_nilpotent():
    with pytest.raises(NotNilpotent):
        jordan_type_of(TwistedEndo.from_rows(RAT, [[1, 0], [0, 1]]))


def test_round_trip_all_types_up_to_8():
    for n in range(1, 9):
        for t in enumerate_orbits(n):
            assert jordan_type_of(standard_representative(t, RAT)) == t


def test_round_trip_finite_model():
    for n in range(1, 6):
        for t in enumerate_orbits(n):
            assert jordan_type_of(standard_representative(t, F9)) == t


def test_type_invariant_under_sigma_conjugation():
    rng = random.Random(31)
    for n in range(1, 6):
        for t in enumerate_orbits(n):
            rep = standard_representative(t, RAT)
            done = 0
            while done < 20:
                h = tuple(tuple(RAT.el(rng.randint(-5, 5), rng.randint(-5, 5))
                                for _ in range(n)) for _ in range(n))
                try:
                    conj = sigma_conjugate(h, rep)
                except SingularMatrix:
                    continue
                assert jordan_type_of(conj) == t
                done += 1


@pytest.mark.parametrize("model", [F4, F9, RAT],
                         ids=["F4", "F9", "Q(sqrt2)"])
def test_jordan_type_agrees_with_the_split_type_oracle(model):
    # the oracle never forms a twisted power: it ranks the ordinary powers
    # of N = Y sigma(Y), and counts parts by the rank of Y itself
    rng = random.Random(47)
    for n in range(1, 6):
        for t in enumerate_orbits(n):
            rep = standard_representative(t, model)
            done = 0
            while done < 3:
                h = tuple(tuple(
                    model.el(rng.randint(-5, 5), rng.randint(-5, 5))
                    if model.kind == "rational" else model.random_element(rng)
                    for _ in range(n)) for _ in range(n))
                try:
                    conj = sigma_conjugate(h, rep)
                except SingularMatrix:
                    continue
                got = jordan_type_of(conj)
                assert got == t
                assert split_type_of(conj) == split_parts(got)
                assert n - mat_rank(conj.mat) == len(got.parts)
                done += 1


def test_centralizer_oracle_examples():
    zero = TwistedEndo.from_rows(RAT, [[0] * 3 for _ in range(3)])
    assert centralizer_dim_oracle(zero) == 18  # 2 n^2
    assert centralizer_dim_oracle(standard_representative(T(2), RAT)) == 4
    assert centralizer_dim_oracle(standard_representative(T(2, 1), RAT)) == 10


def test_orbit_dimension_examples():
    inv = orbit_dimension(T(1, 1, 1))
    assert inv.dim_orbit_F == 0 and inv.c_exponent == 0
    inv2 = orbit_dimension(T(2))
    assert (inv2.dim_orbit_F, inv2.half_dim, inv2.c_exponent,
            inv2.centralizer_dim_F) == (4, 2, 2, 4)
    inv31 = orbit_dimension(T(3, 1))
    assert (inv31.dim_orbit_F, inv31.half_dim, inv31.c_exponent,
            inv31.centralizer_dim_F) == (20, 10, 6, 12)
    assert inv31.dim_orbit_F == 2 * 16 - inv31.centralizer_dim_F


def test_orbit_dimension_is_even_and_consistent():
    for n in range(0, 9):
        for t in enumerate_orbits(n):
            inv = orbit_dimension(t)
            assert inv.dim_orbit_F % 2 == 0
            assert inv.dim_orbit_F == 2 * n * n - inv.centralizer_dim_F
            assert inv.c_exponent >= 0


def test_cached_orbit_dimension_matches_fresh_computation():
    for n in range(0, 11):
        for t in enumerate_orbits(n):
            assert orbit_dimension(t) == orbit_dimension.__wrapped__(t), t
    # an equal type built separately hits the same frozen entry
    inv = orbit_dimension(JordanType((3, 1)))
    assert orbit_dimension(T(3, 1)) is inv
    with pytest.raises(dataclasses.FrozenInstanceError):
        inv.half_dim = 0
    assert orbit_dimension(T(3, 1)).half_dim == 10


def test_check_dimhy_examples_and_sweep():
    # (2): 4 = 2*0 + 4; (1,1): 8 = 2*2 + 4; (2,1): 10 = 2*2 + 6
    assert orbit_dimension(T(2)).springer_dim_F == 0
    assert orbit_dimension(T(1, 1)).springer_dim_F == 2
    assert orbit_dimension(T(2, 1)).springer_dim_F == 2
    for n in range(0, 13):
        for t in enumerate_orbits(n):
            assert check_dimHY(t)


def test_census_n1():
    counts = orbit_census(1, F4)
    assert counts == {T(1): 1}


def test_census_n2_q2_exhaustive():
    counts = orbit_census(2, F4)
    assert set(counts) == {T(2), T(1, 1)}
    assert counts[T(1, 1)] == 1  # the zero class
    # total = number of Y with Y sigma(Y) nilpotent and P_4 = 0
    assert counts[T(2)] + counts[T(1, 1)] == 16
    assert counts[T(2)] == 15


def test_census_n2_q3_totals_q_to_the_n_n_minus_1():
    # Fine-Herstein: gl_n(F_Q) holds Q^(n(n-1)) nilpotents, and each twisted
    # orbit has as many points as the ordinary one of its type, so a map
    # the nilpotence test wrongly rejected would lower this total
    counts = orbit_census(2, F9)
    assert counts == {T(2): 80, T(1, 1): 1}
    assert sum(counts.values()) == 9 ** (2 * 1)


def test_nilpotency_criteria_agree_exhaustively():
    # is_nilpotent tests P_n = 0, which holds iff Y sigma(Y) is nilpotent
    # as an E-matrix; for n = 2 the latter is (Y sigma(Y))^2 = 0
    import itertools

    from tworb.linalg import is_nilpotent, mat_mul, mat_sigma

    elems = list(F4.elements())
    total = 0
    for combo in itertools.product(range(4), repeat=4):
        mat = ((elems[combo[0]], elems[combo[1]]),
               (elems[combo[2]], elems[combo[3]]))
        y = TwistedEndo(F4, 2, mat)
        m = mat_mul(y.mat, mat_sigma(F4, y.mat))
        m2 = mat_mul(m, m)
        classical = all(not x for row in m2 for x in row)
        assert is_nilpotent(y) == classical
        total += classical
    assert total == 16


def test_census_orbit_stabilizer_q2():
    counts = orbit_census(2, F4)
    group = gl_order(4, 2)
    assert group == 180
    stab = stabilizer_order(standard_representative(T(2), F4))
    # centralizer order q^2(q^2-1) has q-degree 4
    assert stab == 12
    assert counts[T(2)] * stab == group
    stab0 = stabilizer_order(standard_representative(T(1, 1), F4))
    assert counts[T(1, 1)] * stab0 == group
    assert all(group % c == 0 for c in counts.values())


def test_census_budget_and_sampling():
    with pytest.raises(BudgetExceeded):
        orbit_census(2, F9, budget=10)
    sampled = orbit_census(2, F9, budget=10, sample_size=300, seed=3)
    assert set(sampled) <= {T(2), T(1, 1)}
    again = orbit_census(2, F9, budget=10, sample_size=300, seed=3)
    assert sampled == again  # seeded determinism


def test_census_tests_each_matrix_for_nilpotence_once(monkeypatch):
    import tworb.orbits as orbits

    calls = []
    real = orbits.is_nilpotent

    def spy(y):
        calls.append(y)
        return real(y)

    monkeypatch.setattr(orbits, "is_nilpotent", spy)
    counts = orbit_census(2, F4)
    assert counts == {T(2): 15, T(1, 1): 1}
    assert len(calls) == 4 ** 4
