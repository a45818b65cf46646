"""Structure-constant tables: validation, series, adapted bases, Smith form."""

import time
from itertools import product
from math import gcd

import pytest

from pgc import (
    make_field, ModRing, LieRing,
    AntisymmetryViolation, JacobiViolation, NotNilpotent,
    validate, derived, centre, lower_central_series, nilpotency_class,
    adapt_basis, is_adapted, base_change,
    free_table, vectors_theoremB,
)
from pgc.liecore import smith_mod, span_mod, kernel_mod
from conftest import heisenberg, field_pool, modular_pool


def test_bracket_folding_and_antisymmetry():
    fs = make_field(5)
    t = LieRing(fs, 3, {(1, 0): {2: 2}})
    # stored with i < j and the sign flipped
    assert t.lam == {(0, 1): {2: 3}}
    # consistent double specification is fine
    t2 = LieRing(fs, 3, {(0, 1): {2: 1}, (1, 0): {2: 4}})
    assert t2.lam == {(0, 1): {2: 1}}
    with pytest.raises(AntisymmetryViolation):
        LieRing(fs, 3, {(0, 1): {2: 1}, (1, 0): {2: 1}})
    with pytest.raises(AntisymmetryViolation):
        LieRing(fs, 3, {(0, 0): {2: 1}})


def test_validate_catches_jacobi_failure():
    fs = make_field(3)
    # [e1,e2]=e3, [e3,e4]=e1: the (e1,e2,e4) cyclic sum is e1, not 0
    bad = LieRing(fs, 4, {(0, 1): {2: 1}, (2, 3): {0: 1}})
    with pytest.raises(JacobiViolation):
        validate(bad)


def test_validate_catches_non_nilpotent():
    fs = make_field(5)
    # [e1,e2] = e2 is a solvable, non-nilpotent 2-dim algebra
    bad = LieRing(fs, 2, {(0, 1): {1: 1}})
    with pytest.raises(NotNilpotent):
        validate(bad)


def test_every_pool_table_validates():
    for t in field_pool():
        validate(t)


def test_heisenberg_invariants():
    t = heisenberg(make_field(5))
    assert nilpotency_class(t) == 2
    assert centre(t).dim == 1
    assert derived(t).dim == 1
    series, c = lower_central_series(t)
    assert c == 2
    assert [s.dim for s in series] == [3, 1, 0]


def test_free_table_series_dims():
    t = free_table(2, 3, make_field(7))
    series, c = lower_central_series(t)
    assert c == 3
    assert [s.dim for s in series] == [5, 3, 2, 0]
    assert centre(t).dim == 2


def test_modular_centre_counts_order_not_dim():
    t = heisenberg(ModRing(3, 2))
    z = centre(t)
    assert z.order() == 9


def test_adapt_basis_postconditions():
    for t in field_pool():
        ab, adapted = adapt_basis(t)
        assert is_adapted(adapted, ab.a, ab.b)
        assert ab.a + (centre(t).dim) == t.h
        assert ab.b == derived(t).dim


def test_base_change_extends_scalars():
    t = heisenberg(make_field(3))
    big = base_change(t, 2)
    assert big.ring.q == 9
    validate(big)
    # same table over GF(9) built directly: identical vectors
    direct = heisenberg(make_field(3, 2))
    a = vectors_theoremB(big)
    b = vectors_theoremB(direct)
    assert dict(a[0].items()) == dict(b[0].items()) == {0: 9, 2: 80}
    assert dict(a[1].items()) == dict(b[1].items()) == {0: 81, 2: 8}


# Integer matrices with known Smith forms over Z; over Z/m their local
# Smith forms are the gcds with m of the integer invariant factors.
LOCAL_MODULI = (8, 9, 27, 49, 169)


def test_smith_normal_form_known():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]  # Smith form (2, 2, 156) over Z
    for m in LOCAL_MODULI:
        d, V, Vinv = smith_mod(A, m, 3)
        assert d == [gcd(x, m) for x in (2, 2, 156)]
        assert _matmul_mod(V, Vinv, m) == _identity(3)
        # column j of A V lies in d_j Z/m, as it does in U^-1 diag(d)
        assert all(x % m % di == 0 for row in _matmul(A, V) for x, di in zip(row, d))


def test_smith_divisibility_chain():
    A = [[6, 10], [15, 4]]  # Smith form (1, 126) over Z
    for m in LOCAL_MODULI:
        d, _, _ = smith_mod(A, m, 2)
        assert d == [gcd(x, m) for x in (1, 126)]
        assert d[1] % d[0] == 0 and m % d[1] == 0


# ---------------------------------------------------------------------------
# subgroups of (Z/m)^h against brute-force enumeration


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _matmul_mod(A, B, m):
    return [[x % m for x in row] for row in _matmul(A, B)]


def _generated(gens, m, h):
    """The subgroup of (Z/m)^h generated by gens, by closure."""
    zero = (0,) * h
    seen, todo = {zero}, [zero]
    while todo:
        v = todo.pop()
        for g in gens:
            w = tuple((x + y) % m for x, y in zip(v, g))
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


# (p, e, h, generators) in (Z/p^e)^h; h <= 3, p^e <= 27
SUBGROUP_CASES = [
    (3, 2, 3, [(3, 0, 0)]),
    # non-split, like the centre x2 = -3 x4 of [e1,e2] = e3, [e1,e4] = 3 e3
    (3, 2, 3, [(6, 1, 0)]),
    (3, 2, 3, [(3, 3, 0), (0, 3, 0)]),
    (3, 2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (3, 3, 3, [(9, 3, 1), (0, 9, 0)]),
    (3, 3, 2, [(3, 6), (9, 0)]),
    (5, 2, 3, [(5, 10, 0), (0, 5, 1)]),
    (2, 3, 2, [(2, 4), (4, 2)]),
    (5, 1, 3, [(1, 2, 3), (2, 4, 1)]),
    (3, 3, 3, []),
]


@pytest.mark.parametrize("p,e,h,gens", SUBGROUP_CASES)
def test_smith_mod_subgroup_and_cosets(p, e, h, gens):
    m = p**e
    M = _generated(gens, m, h)
    d, V, Vinv = smith_mod(gens, m, h)
    assert _matmul_mod(V, Vinv, m) == _identity(h)
    assert all(di in {p**k for k in range(e + 1)} for di in d)
    sub = span_mod(gens, ModRing(p, e), h)
    assert sub.order() == len(M)
    assert _generated(sub.vectors, m, h) == M
    for g, o in zip(sub.vectors, sub.orders):
        assert len(_generated([g], m, h)) == o
    # coset representatives sum_i t_i Vinv_i, 0 <= t_i < d_i: one per coset
    reps = [tuple(sum(t * row[j] for t, row in zip(ts, Vinv)) % m
                  for j in range(h))
            for ts in product(*(range(di) for di in d))]
    assert len(reps) * len(M) == m**h
    cosets = {frozenset(tuple((x + y) % m for x, y in zip(r, v)) for v in M)
              for r in reps}
    assert len(cosets) == len(reps)
    # coordinates (v V)_i / d_i are integers exactly on M
    for v in M:
        w = _matmul([list(v)], V)[0]
        assert all(wi % m % di == 0 for wi, di in zip(w, d))


# (p, e, C) with C an n x w matrix over Z/p^e, n <= 3
KERNEL_CASES = [
    (3, 2, [[3, 1], [0, 3], [6, 0]]),
    (3, 3, [[9, 3, 0], [3, 0, 1]]),
    (5, 1, [[1, 2], [2, 4]]),
    (2, 3, [[2], [4], [0]]),
    (3, 2, [[0, 0], [0, 0]]),
    (5, 2, [[5, 0, 10], [0, 5, 0], [10, 5, 5]]),
    (5, 2, [[1, 22, 2], [8, 21, 21], [2, 19, 4]]),  # dense, kernel Z/5 + Z/25
]


@pytest.mark.parametrize("p,e,C", KERNEL_CASES)
def test_kernel_mod_brute_force(p, e, C):
    m, n = p**e, len(C)
    want = {x for x in product(range(m), repeat=n)
            if all(sum(xi * row[j] for xi, row in zip(x, C)) % m == 0
                   for j in range(len(C[0])))}
    gens, orders = kernel_mod(C, ModRing(p, e))
    assert _generated(gens, m, n) == want
    for g, o in zip(gens, orders):
        assert len(_generated([g], m, n)) == o


def test_smith_mod_dense_vectors_in_milliseconds():
    # dense (Z/25)^6 vectors on which an integer Smith form over Z, never
    # reduced mod m, grows entries of thousands of bits
    gens = [(15, 2, 17, 7, 21, 0), (0, 14, 13, 4, 14, 10),
            (20, 17, 6, 2, 10, 20), (0, 7, 21, 12, 18, 10)]
    t0 = time.perf_counter()
    sub = span_mod(gens, ModRing(5, 2), 6)
    assert time.perf_counter() - t0 < 0.01
    assert sub.orders == [25, 25, 25, 5]
    assert sub.order() == len(_generated(gens, 25, 6)) == 78125


def test_centre_order_brute_force():
    for t in modular_pool():
        m, h = t.ring.m, t.h
        want = sum(
            1 for x in product(range(m), repeat=h)
            if all(not any(t.bracket(t.basis_vector(i), x)) for i in range(h)))
        assert centre(t).order() == want

