"""Hausdorff group law and the brute-force censuses."""

import time
import tracemalloc
from fractions import Fraction

import pytest

from pgc import (
    make_field, ModRing, LieRing,
    bch, star, star_inverse,
    conjugacy_census, coadjoint_census, centralizer_order,
    vectors_theoremB, vectors_dual,
    free_table, ClassTooLarge, BudgetExceeded,
    matrix_exp, matrix_log, bch_matrix_sum, NonPowerClass, NonSquareOrbit,
)
import pgc.lazard
from conftest import heisenberg


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


def test_non_power_class_size_is_a_named_error(monkeypatch):
    # conjugation swapping e1 and e2 has orbits of size 2, not a power of 3
    swap = [(0, 1, 0), (1, 0, 0), (0, 0, 1)]
    monkeypatch.setattr(pgc.lazard, "_ad_rows", lambda *args: swap)
    with pytest.raises(NonPowerClass, match="class size 2"):
        conjugacy_census(heisenberg(make_field(3)))


def test_non_square_orbit_size_is_a_named_error(monkeypatch):
    # Ad = (e1 -> e1 + e2) has co-adjoint orbits of size 3, an odd power
    shear = [(1, 1, 0), (0, 1, 0), (0, 0, 1)]
    monkeypatch.setattr(pgc.lazard, "_ad_rows", lambda *args: shear)
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
    from pgc.commat import batch_rank
    banned = {"batch_rank", "smith_mod", "vectors_dual"}
    tree = ast.parse(inspect.getsource(pgc.lazard))
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not banned & names
    values = [id(v) for v in vars(pgc.lazard).values()]
    assert not {id(batch_rank), id(smith_mod), id(vectors_dual)} & set(values)
