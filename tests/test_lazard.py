"""Hausdorff group law and the brute-force censuses."""

import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pgc import (
    make_field, ModRing, LieRing,
    bch, star, star_inverse,
    conjugacy_census, coadjoint_census, centralizer_order,
    vectors_theoremB, vectors_dual,
    free_table, boston_isaacs_table, quadric_table, ClassTooLarge, BudgetExceeded,
    matrix_exp, matrix_log, bch_matrix_sum, NonPowerClass, NonSquareOrbit,
)
import pgc.lazard
from pgc.lazard import _generators, _orbit_sizes, _permutation
from pgc.liecore import is_field, restrict_scalars
from conftest import field_pool, heisenberg, modular_pool, reference_star


def test_bch_low_degrees_exact():
    s = bch(4)
    assert s.terms[1] == {0: Fraction(1), 1: Fraction(1)}
    assert s.terms[2] == {2: Fraction(1, 2)}
    # degree 3: ([x,y],y)/12 receives -1/12 with basis order (xyy, xyx)
    assert s.terms[3][3] == Fraction(1, 12)
    assert s.terms[3][4] == Fraction(-1, 12)
    # degree 4: single term -[[[x,y],y],x]/24 in the two-generator algebra
    deg4 = {i: c for i, c in s.terms[4].items() if c}
    assert Fraction(-1, 24) in deg4.values()


def test_star_heisenberg_closed_form():
    # for class 2: u * v = u + v + [u,v]/2
    t = heisenberg(make_field(5))
    u, v = (1, 2, 0), (3, 1, 0)
    # [u, v] = (1*1 - 2*3) e3 = -5 e3 = 0 mod 5, so here u * v = u + v
    assert star(u, v, t) == (4, 3, 0)
    u, v = (1, 0, 0), (0, 1, 0)
    # [u, v] = e3, 1/2 = 3 mod 5
    assert star(u, v, t) == (1, 1, 3)


def test_star_group_axioms_sampled():
    t = free_table(2, 3, make_field(5))
    import itertools
    pts = [(1, 2, 3, 0, 4), (0, 1, 0, 2, 0), (4, 4, 1, 1, 1)]
    e = (0,) * 5
    for u in pts:
        assert star(u, e, t) == u
        assert star(u, star_inverse(u, t), t) == e
        for v in pts:
            for w in pts:
                assert star(star(u, v, t), w, t) == \
                    star(u, star(v, w, t), t)


def test_star_at_the_largest_int64_modulus():
    # residues below 3^19 multiply within int64, those below 3^20 do not;
    # past the bound the array law refuses rather than wrap
    m = 3**19
    assert (m - 1) ** 2 < 2**63 <= (3 * m - 1) ** 2
    t = heisenberg(ModRing(3, 19))
    x, y = (m - 1, m - 2, 5), (m - 3, 7, m - 11)
    assert star(x, y, t) == reference_star(x, y, t)
    assert star(y, x, t) == reference_star(y, x, t)
    with pytest.raises(BudgetExceeded, match="int64"):
        star((1, 0, 0), (0, 1, 0), heisenberg(ModRing(3, 20)))


def test_star_requires_small_class():
    t = free_table(2, 3, make_field(3))
    with pytest.raises(ClassTooLarge):
        star((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), t)


def test_census_budget_guard():
    t = free_table(2, 3, make_field(5))  # order 5^5 = 3125
    with pytest.raises(BudgetExceeded):
        conjugacy_census(t, budget=1000)


def test_conjugacy_census_heisenberg():
    t = heisenberg(make_field(3))
    cc = conjugacy_census(t)
    assert dict(cc.items()) == {0: 3, 1: 8}
    ch = coadjoint_census(t)
    assert dict(ch.items()) == {0: 9, 1: 2}


def test_census_matches_matrix_route_gf9():
    t = heisenberg(make_field(3, 2))
    cc_m, ch_m = vectors_theoremB(t)
    assert dict(conjugacy_census(t).items()) == dict(cc_m.items())
    assert dict(coadjoint_census(t).items()) == dict(ch_m.items())


def test_census_matches_dual_route_z9():
    t = heisenberg(ModRing(3, 2))
    cc_d, ch_d = vectors_dual(t)
    assert dict(conjugacy_census(t).items()) == dict(cc_d.items())
    assert dict(coadjoint_census(t).items()) == dict(ch_d.items())


def test_centralizer_orders_free23():
    t = free_table(2, 3, make_field(5))
    # a generator: class size q^2, so centralizer q^3
    assert centralizer_order(t, (1, 0, 0, 0, 0)) == 125
    # a weight-2 element: same class size by the exponent bookkeeping
    assert centralizer_order(t, (0, 0, 1, 0, 0)) == 125
    # central elements commute with everything
    assert centralizer_order(t, (0, 0, 0, 1, 0)) == 5**5


def test_matrix_exp_log_roundtrip():
    N = [[Fraction(0), Fraction(2), Fraction(1)],
         [Fraction(0), Fraction(0), Fraction(3)],
         [Fraction(0), Fraction(0), Fraction(0)]]
    U = matrix_exp(N)
    assert matrix_log(U) == N


def test_bch_matrix_sum_is_log_of_product():
    M = [[Fraction(0), Fraction(1), Fraction(0), Fraction(2)],
         [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
         [Fraction(0), Fraction(0), Fraction(0), Fraction(0)]]
    N = [[Fraction(0), Fraction(0), Fraction(2), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0), Fraction(3)],
         [Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0), Fraction(0)]]
    from pgc.lazard import _mat_mul
    want = matrix_log(_mat_mul(matrix_exp(M), matrix_exp(N)))
    got = bch_matrix_sum(bch(3), M, N)
    assert got == want


@pytest.mark.parametrize("c", [5, 6, 7])
def test_bch_matrix_sum_past_degree_four(c):
    # strictly upper-triangular (c+1) x (c+1) matrices: products of more
    # than c factors vanish, so the series truncated at c is exact
    rng = random.Random(c)

    def nilpotent():
        return [[Fraction(rng.randint(-3, 3) if j > i else 0) for j in range(c + 1)]
                for i in range(c + 1)]

    M, N = nilpotent(), nilpotent()
    from pgc.lazard import _mat_mul
    want = matrix_log(_mat_mul(matrix_exp(M), matrix_exp(N)))
    assert bch_matrix_sum(bch(c), M, N) == want


def test_bch_terms_list_their_hall_indices_in_ascending_order():
    for c in range(1, 9):
        for deg, term in bch(c).terms.items():
            assert list(term) == sorted(term), (c, deg)


def test_non_power_class_size_is_a_named_error(monkeypatch):
    # conjugation swapping e1 and e2 has orbits of size 2, not a power of 3
    swap = [(0, 1, 0), (1, 0, 0), (0, 0, 1)]
    monkeypatch.setattr(pgc.lazard, "_ad_rows", lambda table, gens: [swap] * len(gens))
    with pytest.raises(NonPowerClass, match="class size 2"):
        conjugacy_census(heisenberg(make_field(3)))


def test_non_square_orbit_size_is_a_named_error(monkeypatch):
    # Ad = (e1 -> e1 + e2) has co-adjoint orbits of size 3, an odd power
    shear = [(1, 1, 0), (0, 1, 0), (0, 0, 1)]
    monkeypatch.setattr(pgc.lazard, "_ad_rows", lambda table, gens: [shear] * len(gens))
    with pytest.raises(NonSquareOrbit, match="orbit size 3"):
        coadjoint_census(heisenberg(make_field(3)))


def test_oracle_on_free_24_matches_theoremB():
    t = free_table(2, 4, make_field(5))  # 390,625 elements
    start = time.perf_counter()
    cc = conjugacy_census(t)
    # the per-element closure took about 50 s here; the orbit closure ~1 s
    assert time.perf_counter() - start < 20
    assert cc == vectors_theoremB(t)[0]


def test_oracle_memory_is_a_few_arrays_of_group_order():
    t = heisenberg(ModRing(3, 4))  # 531,441 elements
    tracemalloc.start()
    try:
        cc = conjugacy_census(t)
        ch = coadjoint_census(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cc, ch) == vectors_dual(t)
    assert peak < 64 * 2**20


def test_oracle_does_not_import_the_counting_kernels():
    import ast
    import inspect
    from pgc.liecore import smith_mod
    from pgc.commat import (batch_rank, build_stacks, echelon_bases, _eliminate, stacked_ranks,
                            structure_tensor)
    from pgc.enumctr import _walk
    kernels = [batch_rank, smith_mod, vectors_dual, _walk, echelon_bases, stacked_ranks,
               build_stacks, _eliminate, structure_tensor]
    banned = {fn.__name__ for fn in kernels}
    tree = ast.parse(inspect.getsource(pgc.lazard))
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not banned & names
    values = [id(v) for v in vars(pgc.lazard).values()]
    assert not {id(fn) for fn in kernels} & set(values)


def _every_flat_basis_vector(t):
    """The generators the oracle used before the Frattini reduction: every
    basis vector of t over GF(p) or Z/p^e, as restrict_scalars gives it."""
    return [t.basis_vector(i) for i in range(t.h)]


def _order(t):
    R = restrict_scalars(t).ring
    return (R.q if is_field(R) else R.m) ** restrict_scalars(t).h


def test_reduced_oracle_matches_every_generator(monkeypatch):
    # generators of G/Phi(G) only against every flat basis vector, on the
    # pools' free, non-free quotient and fattened Heisenberg tables; only
    # g_alpha(3 mod 7)/GF(7), with 7^9 elements, is beyond the budget
    budget = 2 * 10**6

    def tables():
        return [t for pool in (field_pool, modular_pool) for t in pool()
                if _order(t) <= budget]

    reduced = []
    for t in tables():
        r = restrict_scalars(t)
        assert len(_generators(r)) < len(_every_flat_basis_vector(r)), t.name
        reduced.append((t.name, [_orbit_sizes(t, budget, tr) for tr in (False, True)]))
    assert len(reduced) == len(field_pool()) + len(modular_pool()) - 1
    monkeypatch.setattr(pgc.lazard, "_generators", _every_flat_basis_vector)
    full = [(t.name, [_orbit_sizes(t, budget, tr) for tr in (False, True)])
            for t in tables()]
    assert full == reduced


@pytest.mark.parametrize("table, count", [
    (free_table(3, 2, make_field(3, 2)), 6),
    (heisenberg(ModRing(3, 3)), 2),
    (free_table(2, 3, make_field(7)), 2),
    (boston_isaacs_table(1, 3), 6),
    (quadric_table(3), 4),
])
def test_generator_counts(table, count):
    assert len(_generators(restrict_scalars(table))) == count


def _reference_permutation(A, n, N):
    radix = n ** np.arange(N, dtype=np.int64)
    out = []
    for start in range(0, n**N, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), n**N), dtype=np.int64)
        out.append(idx[:, None] // radix % n @ A % n @ radix)
    return np.concatenate(out)


@pytest.mark.parametrize("n, N", [
    # 127 and 131 sit on either side of the uint8/uint16 boundary for
    # 2n - 2; orders stay within 2.1e6
    (n, N) for n in (2, 3, 125, 127, 131, 169) for N in (1, 2, 3, 5)
    if n**N <= 2_100_000])
def test_permutation_builder_matches_the_matmul(monkeypatch, n, N):
    A = np.random.default_rng(n * 10 + N).integers(0, n, (N, N))
    want = _reference_permutation(A, n, N)
    assert np.array_equal(_permutation(A, n, N), want)
    monkeypatch.setattr(pgc.lazard, "_CHUNK", 7)  # many blocks, a short last one
    assert np.array_equal(_permutation(A, n, N), want)


def test_permutation_builder_on_a_line_over_z_5_8():
    t = LieRing(ModRing(5, 8), 1, {}, "line")
    n, N = t.ring.m, t.h
    assert (n, N) == (5**8, 1)  # 2n - 2 needs uint32
    A = np.array([[123_457]])
    assert np.array_equal(_permutation(A, n, N), _reference_permutation(A, n, N))
    assert dict(conjugacy_census(t).items()) == {0: 5**8}
    assert dict(coadjoint_census(t).items()) == {0: 5**8}


def test_ad_is_computed_once_per_generator_and_series(monkeypatch):
    calls = []
    ad_rows = pgc.lazard._ad_rows

    def counted(*args):
        calls.extend(args[1])
        return ad_rows(*args)

    monkeypatch.setattr(pgc.lazard, "_ad_rows", counted)
    t = quadric_table(3)
    cc, ch = conjugacy_census(t), coadjoint_census(t)
    assert (cc, ch) == vectors_theoremB(t)
    assert sorted(calls) == sorted(_generators(restrict_scalars(t)))
