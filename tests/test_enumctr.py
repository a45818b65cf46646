"""Rank censuses, the two counting routes, and exact interpolation."""

import itertools
import os
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from pgc import (
    make_field, ModRing, LieRing, rank,
    rank_distribution, quadric_table,
    BudgetExceeded, ClassTooLarge, CountVector,
    rank_distribution_A, rank_distribution_B,
    vectors_theoremB, vectors_dual, class_number,
    s_size_from_mu, s_size_from_nu,
    build_commutator_matrices,
    free_table, boston_isaacs_table, poly_fit, QPolynomial,
)
import pgc.commat
import pgc.enumctr
from pgc.commat import batch_rank, structure_tensor
from pgc.enumctr import DuplicateNode, NonIntegralCoefficient, InexactDivision, count_vectors
from pgc.liecore import centre, derived, restrict_scalars, smith_mod
from pgc.enumctr import _cheaper, _kernel_census, _kernel_levels, _point_census
from conftest import (change_basis, heisenberg, dual_pool, field_pool, form_matrix,
                      modular_pool, skew_form)


def test_heisenberg_rank_loci():
    t = heisenberg(make_field(5))
    A, B = build_commutator_matrices(t)
    mu = rank_distribution_A(A)
    nu = rank_distribution_B(B)
    assert dict(mu.items()) == {0: 1, 1: 24}
    assert dict(nu.items()) == {0: 1, 1: 4}


def test_vectors_heisenberg_prime_and_extension():
    for q, (p, f) in [(3, (3, 1)), (9, (3, 2)), (25, (5, 2))]:
        t = heisenberg(make_field(p, f))
        cc, ch = vectors_theoremB(t)
        assert dict(cc.items()) == {0: q, f: q**2 - 1}
        assert dict(ch.items()) == {0: q**2, f: q - 1}
        assert cc.total() == ch.total() == q**2 + q - 1


def _brute_force_distribution(M):
    counts = {}
    for pt in itertools.product(M.fs.elements(), repeat=M.nvars):
        r = rank(M.evaluate(pt), M.fs)
        counts[r] = counts.get(r, 0) + 1
    return counts


def _one_form(fs, nvars, rows=1, cols=1):
    """rows x cols matrix whose every entry is the first variable."""
    coeffs = [[[fs.one()] + [fs.zero()] * (nvars - 1) if nvars else []
               for _ in range(cols)] for _ in range(rows)]
    return form_matrix(fs, rows, cols, nvars, coeffs)


def test_rank_distribution_matches_brute_force():
    tables = [heisenberg(make_field(3, 3)), free_table(3, 2, make_field(3, 2)),
              quadric_table(9), free_table(2, 3, make_field(7))]
    mats = [_one_form(make_field(5), 0, 2, 2), _one_form(make_field(3, 2), 1)]
    for t in tables:
        mats += build_commutator_matrices(t)
    assert {M.nvars for M in mats} >= {0, 1, 2, 3, 4}
    for M in mats:
        assert rank_distribution(M) == _brute_force_distribution(M)


@pytest.mark.parametrize("fs", [make_field(5), make_field(3, 2)],
                         ids=["GF(5)", "GF(9)"])
def test_rank_distribution_independent_of_workers(fs, monkeypatch):
    # 7 monic points per chunk: shards cross chunk boundaries and the
    # boundaries between leading positions (blocks of q^3, q^2, q, 1)
    monkeypatch.setattr(pgc.enumctr, "_CHUNK", 7)
    A, B = build_commutator_matrices(free_table(2, 3, fs))
    coeffs = [[[fs.embed(r + 2 * c + v) for v in range(4)] for c in range(3)]
              for r in range(2)]
    M4 = form_matrix(fs, 2, 3, 4, coeffs)
    for M in (A, B, M4):
        want = _brute_force_distribution(M)
        for w in (1, 2, 3):
            assert rank_distribution(M, workers=w) == want, (M.nvars, w)


def _zero_form(fs, rows, cols, nvars):
    return form_matrix(fs, rows, cols, nvars,
                       [[[fs.zero()] * nvars for _ in range(cols)]
                        for _ in range(rows)])


def test_kernel_census_matches_point_census():
    mats = [_one_form(make_field(5), 0, 2, 2), _one_form(make_field(3, 2), 1),
            _one_form(make_field(7), 1, 2, 3), _zero_form(make_field(5), 3, 2, 2),
            _zero_form(make_field(2, 2), 2, 3, 0)]
    for t in field_pool():
        mats += build_commutator_matrices(t)
    # the 6 x 6 B(Y) of the three class-2 tables with b = 3 rank 5.1e5 to
    # 6.9e6 subspaces at levels 1, 2 and 6; the rest rank at most 42,175
    ran = [M for M in mats if not (M.rows == M.cols == 6 and M.nvars == 3)]
    assert len(mats) - len(ran) == 3
    shapes = {(M.rows > M.cols) - (M.rows < M.cols) for M in ran}
    assert shapes == {-1, 0, 1} and {0, 1} <= {M.nvars for M in ran}
    assert any(M.fs.f > 1 for M in ran)
    # skew B(Y) of sizes 2 to 5 walk the single level C or levels 1 and C
    assert {frozenset(_kernel_levels(M.fs.q, M.rows, True)[0])
            for M in ran if M.skew} == {frozenset(s) for s in ({2}, {3}, {1, 4}, {1, 5})}
    for M in ran:
        assert _kernel_census(M, 1) == _point_census(M, 1), (M.rows, M.cols, M.nvars)


@pytest.mark.parametrize("fs", [make_field(5), make_field(3, 2)],
                         ids=["GF(5)", "GF(9)"])
def test_kernel_census_independent_of_workers(fs, monkeypatch):
    # at most 7 R C stack entries per chunk: shards cross chunk boundaries
    # and the boundaries between pivot sets and subspace dimensions
    monkeypatch.setattr(pgc.enumctr, "_CHUNK", 7)
    A, B = build_commutator_matrices(free_table(2, 3, fs))
    coeffs = [[[fs.embed(r + 2 * c + v) for v in range(4)] for c in range(3)]
              for r in range(2)]
    M4 = form_matrix(fs, 2, 3, 4, coeffs)
    rng = random.Random(5)
    S4 = skew_form(fs, 4, 2, lambda: fs.from_int(rng.randrange(fs.q)))
    assert set(_kernel_levels(fs.q, 4, True)[0]) == {1, 4}
    for M in (A, B, M4, S4):
        want = _brute_force_distribution(M)
        for w in (1, 2, 3):
            assert _kernel_census(M, w) == want, (M.nvars, w)


@pytest.mark.parametrize("route", [_point_census, _kernel_census],
                         ids=["points", "kernel"])
def test_each_block_is_built_once(route, monkeypatch):
    # 7 points per block: many blocks, dealt out to every worker
    monkeypatch.setattr(pgc.enumctr, "_CHUNK", 7)
    built, original = [], pgc.commat.build_stacks

    def counted(fs, codes, exps, block):
        built.extend((exps, *piece) for piece in block)
        return original(fs, codes, exps, block)

    monkeypatch.setattr(pgc.commat, "build_stacks", counted)
    fs, rng = make_field(5), random.Random(4)
    # a skew 4 x 4 walks the 156 lines of F_5^4 (the 3 x 3 B(Y) of
    # f(2,3) walks one subspace, F_5^3)
    S4 = skew_form(fs, 4, 3, lambda: fs.from_int(rng.randrange(5)))
    for M in (build_commutator_matrices(free_table(2, 3, fs))[0], S4):
        want = None
        for w in (1, 2, 3):
            built.clear()
            assert route(M, w) == _brute_force_distribution(M)
            assert len(built) == len(set(built)) > 3, (M.nvars, w)
            want = want or sorted(built)
            assert sorted(built) == want, (M.nvars, w)


def _blocks_ranked(census, M, monkeypatch):
    """[(k, bases, step, C)] of every block of stacks built in one census
    of M, in walk order: k-dimensional subspaces of F_q^C, dealt in blocks
    of step bases by _walk's rule."""
    calls, original = [], pgc.commat.build_stacks

    def counted(fs, codes, exps, block):
        n, R, C = codes.shape
        k, N = len(block[0][0][1]), sum(stop - start for _, start, stop in block)
        step = max(1, pgc.enumctr._CHUNK * max(M.rows * M.cols, 1) // max(k * R * n, 1))
        calls.append((k, N, step, C))
        return original(fs, codes, exps, block)

    monkeypatch.setattr(pgc.commat, "build_stacks", counted)
    assert census(M, 1) == _brute_force_distribution(M)
    monkeypatch.setattr(pgc.commat, "build_stacks", original)
    return calls


def test_walk_blocks_span_pivot_sets(monkeypatch):
    # a skew 4 x 4 in 3 variables over GF(5) walks levels 4 and 1; at
    # level 1 the 156 lines of F_5^4 in pivot sets of 125, 25, 5 and 1
    # come in blocks of step = 66 bases, the second joining two pivot sets
    fs, rng = make_field(5), random.Random(6)
    S4 = skew_form(fs, 4, 3, lambda: fs.from_int(rng.randrange(5)))
    monkeypatch.setattr(pgc.enumctr, "_CHUNK", 50)
    assert [(k, N, step) for k, N, step, _ in _blocks_ranked(_kernel_census, S4, monkeypatch)
            ] == [(4, 1, 16), (1, 66, 66), (1, 66, 66), (1, 24, 66)]
    # on every level of several censuses all blocks but the last rank
    # exactly step bases, and the level ranks each subspace once
    A, B = build_commutator_matrices(free_table(2, 3, fs))
    for chunk in (7, 50):
        monkeypatch.setattr(pgc.enumctr, "_CHUNK", chunk)
        for census, M in [(_point_census, A), (_point_census, S4),
                          (_kernel_census, S4), (_kernel_census, B)]:
            blocks = _blocks_ranked(census, M, monkeypatch)
            for level in {(k, C) for k, _, _, C in blocks}:
                sizes = [N for k, N, _, C in blocks if (k, C) == level]
                step = next(step for k, _, step, C in blocks if (k, C) == level)
                assert sizes[:-1] == [step] * (len(sizes) - 1) and sizes[-1] <= step
                assert sum(sizes) == pgc.enumctr._qbinom(level[1], level[0], fs.q)


def test_walk_ranks_small_pivot_sets_in_one_block(monkeypatch):
    # the 121 monic points of F_3^5 lie in pivot sets of 81, 27, 9, 3 and 1
    # points, all below the step of 1 << 15: one block, built once
    A = build_commutator_matrices(free_table(5, 2, make_field(3)))[0]
    assert [(k, N) for k, N, _, _ in _blocks_ranked(_point_census, A, monkeypatch)
            ] == [(1, 121)]


def test_thread_pool_never_exceeds_the_cpus_or_the_blocks(monkeypatch):
    sizes = []

    class Serial:
        """Records the pool size and runs the shards one after another."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    monkeypatch.setattr(pgc.enumctr, "ThreadPoolExecutor", Serial)
    monkeypatch.setattr(pgc.enumctr, "_CHUNK", 7)
    fs = make_field(5)
    A, B = build_commutator_matrices(free_table(2, 3, fs))
    for census in (_point_census, _kernel_census):
        for M in (A, B):
            assert census(M, 10_000) == _brute_force_distribution(M)
    assert all(size <= os.cpu_count() for size in sizes)
    # one block: no pool at all
    sizes.clear()
    monkeypatch.setattr(pgc.enumctr, "_CHUNK", 1 << 15)
    _point_census(build_commutator_matrices(heisenberg(fs))[1], 10_000)
    assert sizes == []


def _plan(t, side):
    M = build_commutator_matrices(t)["AB".index(side)]
    if not _cheaper(M)[0]:
        return None
    return set(_kernel_levels(M.fs.q, min(M.rows, M.cols), M.skew)[0])


def test_route_rule_on_benchmark_censuses():
    # 267 subspaces of F_11^3 against 177,156 monic points of F_11^6
    assert _plan(boston_isaacs_table(2, 11), "A") == {1, 2, 3}
    # skew B(Y): rank is even, so S_0, S_C and the fewest low levels fix
    # g; 2,801 lines and F_7^5 against 19,608 monic points of F_7^6
    assert _plan(free_table(2, 4, make_field(7)), "B") == {1, 5}
    assert _plan(free_table(3, 3, make_field(5)), "B") == {1, 2, 6}
    # 8 x 8 in 12 variables: levels 1, 2, 6 and 8 would do 1.5e14 batch_rank
    # work, the point census 1.2e12
    assert _plan(free_table(2, 5, make_field(7)), "B") is None


def test_route_rule_counts_a_fixed_cost_per_block():
    # A census of a few matrices costs about its blocks: the one 4 x 1
    # stack of F_27^2 (level 2) beats the one 2 x 2 point of P^0(F_27),
    # the exact solve walking nothing, and 133 points beat the 2.4e8
    # subspaces of levels 1, 2 and 6 of F_11^6
    assert _plan(heisenberg(make_field(3, 3)), "B") == {2}
    assert _plan(boston_isaacs_table(2, 11), "B") is None
    # 364 points in one block beat 27 subspaces in three
    assert _plan(boston_isaacs_table(1, 3), "A") is None
    # the 2 x 1 A(X) of heis/GF(27): one subspace against 28 points, one
    # block each, and the kernel census measured faster
    assert _plan(heisenberg(make_field(3, 3)), "A") == {1}


def test_skew_census_walks_the_fewest_levels():
    # the support of g is every other d; the levels are the cheapest that
    # make the system square and invertible
    for q in (2, 3, 7):
        for C, levels in [(0, set()), (1, set()), (2, {2}), (3, {3}), (4, {1, 4}),
                          (5, {1, 5}), (6, {1, 2, 6}), (8, {1, 2, 6, 8})]:
            assert set(_kernel_levels(q, C, True)[0]) == levels, (q, C)
        assert set(_kernel_levels(q, 5, False)[0]) == {1, 2, 3, 4, 5}


def test_known_level_one_is_read_and_not_walked():
    # S_0 and S_1 fix g on a support of two: a skew C of 2 or 3 walks no
    # level, and 4 or 5 ranks the one stack of F_q^C
    for q in (2, 3, 7):
        for C, levels in [(2, set()), (3, set()), (4, {4}), (5, {5}), (6, {2, 6}),
                          (8, {2, 6, 8})]:
            assert set(_kernel_levels(q, C, True, (1,))[0]) == levels, (q, C)
        for C in range(1, 7):
            assert set(_kernel_levels(q, C, False, (1,))[0]) == set(range(2, C + 1))


def _seeds_of_theoremB(table, monkeypatch):
    """(B, known) as vectors_theoremB hands them to rank_distribution_B."""
    seen, original = [], pgc.enumctr.rank_distribution_B

    def recorded(B, budget, workers, known):
        seen.append((B, known))
        return original(B, budget, workers, known)

    monkeypatch.setattr(pgc.enumctr, "rank_distribution_B", recorded)
    vectors_theoremB(table)
    monkeypatch.undo()
    (B, known), = seen
    return B, known


def test_seeded_B_census_equals_the_unseeded(monkeypatch):
    # S_1 from A's census is the S_1 of B's own census, whichever basis;
    # on the kernel route a seed off by one is not a count of points
    rng = random.Random(11)
    tables = dual_pool() + [
        change_basis(t, t.ring.p, [(*rng.sample(range(t.h), 2),
                                    rng.randrange(1, t.ring.p)) for _ in range(3 * t.h)])
        for t in field_pool() if t.ring.f == 1]
    seeded = set()
    for t in tables:
        B, known = _seeds_of_theoremB(t, monkeypatch)
        q, a, b = B.fs.q, B.rows, B.nvars
        nu = rank_distribution_B(B)
        assert known == {1: (s_size_from_nu(nu.entries, a, q) - q**b) // (q - 1)}, t.name
        assert rank_distribution_B(B, 10**9, 1, known) == nu, t.name
        if _cheaper(B, (1,))[0]:
            seeded.add(a)
            for off in (-1, 1):
                with pytest.raises(InexactDivision):
                    rank_distribution_B(B, 10**9, 1, {1: known[1] + off})
    assert seeded == {2, 3, 4, 5}
    assert any(t.ring.f > 1 for t in tables)


@pytest.mark.parametrize("fs", [make_field(3), make_field(3, 2)], ids=["GF(3)", "GF(9)"])
def test_seeded_kernel_census_of_skew_forms(fs):
    # S_1 read off the point census of the stacks at the lines <w>, the
    # A(w) of the M(y) (codes transposed); skew sizes 2 to 6 (5 over GF(9))
    rng = random.Random(12)
    for size in range(2, 7 if fs.q == 3 else 6):
        for n in (1, 3):
            M = skew_form(fs, size, n, lambda: fs.from_int(rng.randrange(fs.q)))
            A = pgc.LinearFormMatrix(fs, M.codes.transpose(2, 1, 0))
            s = s_size_from_mu(_point_census(A, 1), n, fs.q)
            level1 = (s - fs.q**n) // (fs.q - 1)
            assert _kernel_census(M, 1, {1: level1}) == _point_census(M, 1), (size, n)
            for off in (-1, 1):
                with pytest.raises(InexactDivision):
                    _kernel_census(M, 1, {1: level1 + off})


def test_kernel_census_sums_exactly_past_int64(monkeypatch):
    # S_1 = 9 * 3^38 + 4 * 3^39 > 2^63 over the 13 lines of F_3^3
    def kernel(*args):
        raise AssertionError("the point census started")

    monkeypatch.setattr(pgc.enumctr, "_point_census", kernel)
    fs, n = make_field(3), 39
    coeffs = [[[fs.zero()] * n for _ in range(3)] for _ in range(3)]
    coeffs[0][0][0] = fs.one()
    x1 = form_matrix(fs, 3, 3, n, coeffs)
    assert rank_distribution(x1, budget=10**19) == {0: 3**38, 1: 3**39 - 3**38}
    assert rank_distribution(_zero_form(fs, 3, 3, n), budget=10**19) == {0: 3**39}


def test_oversized_census_is_a_budget_error(monkeypatch):
    def kernel(*args):
        raise AssertionError("the census started")

    monkeypatch.setattr(pgc.enumctr, "stacked_ranks", kernel)
    M = _one_form(make_field(101), 11)
    with pytest.raises(BudgetExceeded, match="64-bit"):
        rank_distribution(M, budget=10**30)
    # the kernel census would rank one 1 x 1 matrix, but q^n is past int64
    with pytest.raises(BudgetExceeded, match="64-bit"):
        rank_distribution(M)
    monkeypatch.undo()
    # q^1 is within the default budget, but O(q) element tables are refused
    with pytest.raises(BudgetExceeded, match="table limit"):
        rank_distribution(_one_form(make_field(3, 13), 1))


def test_theoremB_checks_both_budgets_before_either_census(monkeypatch):
    # f(2,5)/GF(7): A has 7^8 points, within the default budget; B has 7^12
    def kernel(*args):
        raise AssertionError("a census started")

    monkeypatch.setattr(pgc.enumctr, "stacked_ranks", kernel)
    with pytest.raises(BudgetExceeded, match="exceeds budget"):
        vectors_theoremB(free_table(2, 5, make_field(7)))


def test_budget_counts_the_bases_the_walk_ranks(monkeypatch):
    class Reached(Exception):
        """A census started."""

    def kernel(*args):
        raise Reached

    monkeypatch.setattr(pgc.enumctr, "stacked_ranks", kernel)
    # f(3,3)/GF(7): 19,608 + 6,865,252 bases at the default budget, though
    # B has 7^11 points
    with pytest.raises(Reached):
        vectors_theoremB(free_table(3, 3, make_field(7)))
    # f(2,3)/Z5^5: 12,613,931 bases a side, though |g/z| = |g'^| = 5^15
    with pytest.raises(Reached):
        vectors_dual(free_table(2, 3, ModRing(5, 5)))
    # f(2,5)/GF(7): B's cheaper census, the point census, ranks 2.3e9
    with pytest.raises(BudgetExceeded, match="Theorem B would rank 960800 \\+ 2306881200 "):
        vectors_theoremB(free_table(2, 5, make_field(7)))


def test_oversized_dual_route_is_a_budget_error(monkeypatch):
    def kernel(*args):
        raise AssertionError("the kernel started")

    monkeypatch.setattr(pgc.enumctr, "stacked_ranks", kernel)
    # |g/z| = m^2 fits an int64, but sums of h = 3 products mod m do not
    with pytest.raises(BudgetExceeded, match="64-bit integers"):
        vectors_dual(heisenberg(ModRing(7, 11)), budget=10**28)
    with pytest.raises(BudgetExceeded, match="64-bit point index"):
        vectors_dual(heisenberg(ModRing(3, 21)), budget=10**31)
    with pytest.raises(BudgetExceeded, match="exceeds budget"):
        vectors_dual(heisenberg(ModRing(3, 21)))


def test_dual_route_budget_counts_the_points_ranked():
    # one generator per cyclic subgroup: 160 of g/z = (Z/81)^2 and 4 of
    # g'^ = Z/81 are ranked, not the 6561 + 81 points
    cc, ch = vectors_dual(heisenberg(ModRing(3, 4)), budget=164)
    assert cc.total() == ch.total()
    with pytest.raises(BudgetExceeded, match="160 \\+ 4 bases, which exceeds budget 163"):
        vectors_dual(heisenberg(ModRing(3, 4)), budget=163)


def test_large_extension_field_census_allocates_no_qn_array():
    fs = make_field(3, 7)
    q = fs.q
    x1 = _one_form(fs, 2)
    row = form_matrix(fs, 1, 2, 2, [[[fs.one(), fs.zero()],
                                     [fs.zero(), fs.one()]]])  # (x1 x2)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        got = [rank_distribution(x1), rank_distribution(row)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [{0: q, 1: q**2 - q}, {0: 1, 1: q**2 - 1}]
    assert time.perf_counter() - t0 < 5
    # q^2 int64 entries would take 38 MB; tables and chunks take well under 4
    assert peak < 4 * 2**20


def test_theoremB_rejects_modular_table():
    with pytest.raises(ValueError, match="field table"):
        vectors_theoremB(heisenberg(ModRing(3, 2)))


def test_count_vector_mass_and_total():
    cc = CountVector({0: 5, 1: 24}, p=5)
    assert cc.total() == 29
    assert cc.mass(1) == 5 + 24 * 5  # class sizes weighted by p^i
    ch = CountVector({0: 25, 1: 4}, p=5)
    assert ch.mass(2) == 25 + 4 * 25  # degrees squared
    with pytest.raises(ValueError):
        CountVector({0: 1}).mass()


def test_budget_exceeded_propagates():
    t = free_table(2, 5, make_field(7))
    with pytest.raises(BudgetExceeded):
        vectors_theoremB(t, budget=10**6)


def test_class_too_large_gate():
    t = free_table(2, 3, make_field(3))  # class 3 at p = 3
    with pytest.raises(ClassTooLarge):
        vectors_theoremB(t)
    with pytest.raises(ClassTooLarge):
        vectors_dual(t)


def test_dual_route_heisenberg_z9():
    t = heisenberg(ModRing(3, 2))
    cc, ch = vectors_dual(t)
    assert dict(cc.items()) == {0: 9, 1: 24, 2: 72}
    assert dict(ch.items()) == {0: 81, 1: 18, 2: 6}
    k, s = class_number(t)
    assert k == 105


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dual_route_in_a_dense_basis(seed):
    t = free_table(3, 2, ModRing(5, 2))
    rng = random.Random(seed)
    ops = [(*rng.sample(range(t.h), 2), rng.randrange(1, 25))
           for _ in range(6 * t.h)]
    dense = change_basis(t, 25, ops)
    t0 = time.perf_counter()
    got = vectors_dual(dense)
    assert time.perf_counter() - t0 < 1
    assert got == vectors_dual(t)


def test_matrix_and_dual_agree_on_every_field():
    # over GF(p^f), f > 1, the dual route runs on restrict_scalars(t)
    pool = dual_pool()
    assert sum(t.ring.f > 1 for t in pool) >= 4
    for t in pool:
        cc_m, ch_m = vectors_theoremB(t)
        cc_d, ch_d = vectors_dual(t)
        assert dict(cc_m.items()) == dict(cc_d.items()), t.name
        assert dict(ch_m.items()) == dict(ch_d.items()), t.name


def _lengths_of_every_point(gens, orders, forms, ring):
    """{l: #{x = sum_i t_i gens[i], 0 <= t_i < orders[i] : |row span of
    sum_k x_k forms[k]| = p^l}}, every point ranked: the dual route's
    census before it ranked one point per orbit of the units."""
    m, h = ring.m, forms.shape[0]
    G = np.array(gens, dtype=np.int64).reshape(len(gens), h) % m
    t = np.array(list(itertools.product(*map(range, orders))), dtype=np.int64)
    counts = Counter()
    for chunk in np.array_split(t.reshape(-1, len(gens)), -(-len(t) // 4096)):
        mats = (chunk @ G % m) @ forms.reshape(h, -1) % m
        counts.update(batch_rank(mats.reshape(len(chunk), h, h), ring).tolist())
    return counts


def _dual_by_every_point(table):
    """(cc, ch) of vectors_dual from _lengths_of_every_point over coset
    representatives of g/z and the characters of g', with no restriction
    to Smith coordinates; GF(p) runs as Z/p^1."""
    table = restrict_scalars(table)
    p, h = table.ring.p, table.h
    ring = table.ring if isinstance(table.ring, ModRing) else ModRing(p, 1)
    m, L = ring.m, structure_tensor(table)
    z, d = centre(table), derived(table)
    dz, _, Vinv = smith_mod(z.vectors, m, h)
    dd, V, _ = smith_mod(d.vectors, m, h)
    quo = [i for i, x in enumerate(dz) if x > 1]
    active = [i for i, x in enumerate(dd) if x != m]
    cls = _lengths_of_every_point([Vinv[i] for i in quo], [dz[i] for i in quo], L, ring)
    chs = _lengths_of_every_point([[row[i] for row in V] for i in active],
                                  [m // dd[i] for i in active], L.transpose(2, 0, 1), ring)
    return count_vectors(cls, chs, z.order(), m**h // d.order(), p)


def _mixed_modules():
    """Tables over Z/27 whose g/z and g' are sums of cyclic groups of
    different orders: Z/9 + Z/27^2 and Z/27 + Z/9 for the first, Z/9^2
    and Z/9 for the second."""
    R = ModRing(3, 3)
    return [LieRing(R, 5, {(0, 1): {3: 1}, (0, 2): {4: 3}, (1, 2): {4: 9}}, "mixed"),
            LieRing(R, 3, {(0, 1): {2: 3}}, "heisenberg 3")]


def test_unit_orbit_census_equals_every_point():
    tables = modular_pool() + _mixed_modules()
    rng = random.Random(7)
    for t in list(tables):
        m = t.ring.m
        tables.append(change_basis(t, m, [(*rng.sample(range(t.h), 2), rng.randrange(1, m))
                                          for _ in range(4 * t.h)]))
    for t in tables + dual_pool():
        assert vectors_dual(t) == _dual_by_every_point(t), t.name


def _matrices_ranked(table, monkeypatch):
    """[(matrices, rows, cols)] of each block of stacks vectors_dual
    builds."""
    calls, original = [], pgc.commat.build_stacks

    def counted(ring, codes, exps, block):
        n, R, _ = codes.shape
        k, N = len(block[0][0][1]), sum(stop - start for _, start, stop in block)
        calls.append((N, k * R, n))
        return original(ring, codes, exps, block)

    monkeypatch.setattr(pgc.commat, "build_stacks", counted)
    vectors_dual(table)
    monkeypatch.setattr(pgc.commat, "build_stacks", original)
    return calls


def test_dual_route_ranks_one_point_per_unit_orbit(monkeypatch):
    # the cyclic subgroups of g/z resp. g'^ but the origins, which are
    # counted unranked: (Z/125)^2 has 6 + 30 + 150 of them, of orders 5,
    # 25 and 125, and Z/125 one of each order (15,625 + 125 points)
    heis = [LieRing(ModRing(p, e), 3, {(0, 1): {2: 1}}, "heis") for p, e in ((5, 3), (3, 4))]
    for t, want in [(heis[0], [(186, 2, 1), (3, 2, 2)]),
                    (heis[1], [(160, 2, 1), (4, 2, 2)]),
                    # (Z/9)^3: 13 + 117 on both sides (729 + 729 points)
                    (free_table(3, 2, ModRing(3, 2)), [(130, 3, 3), (130, 3, 3)]),
                    # the monic points of F_3^6 and F_3^3 (729 + 27 points)
                    (boston_isaacs_table(1, 3), [(364, 6, 3), (13, 6, 6)])]:
        assert _matrices_ranked(t, monkeypatch) == want, t.name


def test_dense_basis_ranks_at_the_smith_generators(monkeypatch):
    # f(3,2)/Z25 has z = g' = (Z/25)^3: ad_x has rows at the 3 generators
    # of g/z and columns at the 3 Smith columns of g', and B_omega rows and
    # columns at the generators of g/z, however dense the basis
    t = free_table(3, 2, ModRing(5, 2))
    rng = random.Random(3)
    dense = change_basis(t, 25, [(*rng.sample(range(t.h), 2), rng.randrange(1, 25))
                                 for _ in range(6 * t.h)])
    assert sum(1 for row in dense.lam.values() for c in row.values() if c) > 30
    assert {shape[1:] for shape in _matrices_ranked(dense, monkeypatch)} == {(3, 3)}
    assert vectors_dual(dense) == vectors_dual(t)


def test_fibration_counts_agree():
    t = free_table(2, 3, make_field(5))
    A, B = build_commutator_matrices(t)
    mu = rank_distribution_A(A)
    nu = rank_distribution_B(B)
    q = 5
    assert sum(mu.entries.values()) == q**A.nvars
    assert sum(nu.entries.values()) == q**B.nvars
    assert s_size_from_mu(mu.entries, B.nvars, q) == \
        s_size_from_nu(nu.entries, A.nvars, q)


def test_class_number_consistency():
    t = free_table(2, 3, make_field(5))
    k, s = class_number(t)
    cc, ch = vectors_theoremB(t)
    assert k == cc.total() == ch.total() == 149


def test_poly_fit_recovers_polynomial():
    target = QPolynomial([0, -1, 0, 1, 2])  # 2q^4 + q^3 - q
    pts = [(q, target(q)) for q in (2, 3, 5, 7, 11)]
    fitted = poly_fit(pts, integral=True)
    assert fitted == target


def test_poly_fit_errors():
    with pytest.raises(DuplicateNode):
        poly_fit([(3, 1), (3, 2)])
    with pytest.raises(NonIntegralCoefficient):
        poly_fit([(2, 1), (3, 2), (4, 4)], integral=True)
    # without the flag the rational fit is returned
    p = poly_fit([(2, 1), (3, 2), (4, 4)])
    assert p(2) == 1 and p(3) == 2 and p(4) == 4


def test_qminus1_expansion():
    # q^2 + q + 1 = (q-1)^2 + 3(q-1) + 3
    p = QPolynomial([1, 1, 1])
    assert p.qminus1_coefficients() == [Fraction(3), Fraction(3), Fraction(1)]


def test_count_vectors_check_lengths_and_totals(monkeypatch):
    from pgc.enumctr import count_vectors
    # the Heisenberg group over GF(5): 24 classes of size 5, 4 characters of degree 5
    cc, ch = count_vectors({0: 1, 1: 24}, {0: 1, 2: 4}, 5, 25, 5)
    assert (cc.entries, ch.entries, cc.p) == ({0: 5, 1: 24}, {0: 25, 1: 4}, 5)
    with pytest.raises(InexactDivision, match="not an even p-power"):
        count_vectors({0: 1}, {1: 1}, 1, 1, 3)
    # Theorem B assembles through count_vectors, so it checks the totals
    monkeypatch.setattr(pgc.enumctr, "rank_distribution_B",
                        lambda *args: CountVector({0: 1, 1: 9}, p=5))
    with pytest.raises(InexactDivision, match="totals disagree"):
        vectors_theoremB(heisenberg(make_field(5)))


def test_exact_division_guard():
    from pgc.enumctr import _exact_div
    assert _exact_div(10, 5) == 2
    with pytest.raises(InexactDivision):
        _exact_div(10, 4)
