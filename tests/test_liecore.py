"""Structure-constant tables: validation, series, adapted bases, Smith form."""

import random
import time
from itertools import product
from math import gcd

import pytest

from pgc import (
    make_field, ModRing, LieRing,
    AntisymmetryViolation, JacobiViolation, NotNilpotent,
    validate, derived, centre, lower_central_series, nilpotency_class,
    adapt_basis, base_change,
    free_table, vectors_theoremB, boston_isaacs_table, pfaffian_case_vectors,
)
from pgc.liecore import echelon, smith_mod, span_mod, kernel_mod, restrict_scalars
from conftest import (heisenberg, dual_pool, field_pool, prime_field_pool,
                      modular_pool, change_basis)


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


def test_coefficients_are_checked_when_a_table_is_built():
    gf25 = make_field(5, 2)
    # tuple digits are reduced mod p and padded: (5, 0) is 0, (6, 0) and
    # (6,) are 1
    t = LieRing(gf25, 3, {(0, 1): {2: (5, 0)}})
    assert t.lam == {}
    assert vectors_theoremB(t)[0] == {0: 25**3}
    assert LieRing(gf25, 3, {(0, 1): {2: (6,)}}).lam == {(0, 1): {2: (1, 0)}}
    t = LieRing(gf25, 3, {(0, 1): {2: (6, 0)}})
    assert t.lam == {(0, 1): {2: (1, 0)}}
    assert vectors_theoremB(t) == vectors_theoremB(heisenberg(gf25))
    for ring, c in ((make_field(5), (1,)), (ModRing(5, 2), (1,)),
                    (gf25, (1, 0, 0)), (gf25, ()), (gf25, "1"), (gf25, (1.0, 0))):
        with pytest.raises(ValueError, match="is not an element of"):
            LieRing(ring, 3, {(0, 1): {2: c}})


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


def test_modular_dim_is_an_error():
    # the centre has orders [9, 3, 3]: three generators, but not 9^3 elements
    z = centre(LieRing(ModRing(3, 2), 3, {(0, 1): {2: 3}}))
    assert z.order() == 81
    with pytest.raises(ValueError, match="use order"):
        z.dim


def _dense(t, rng, n=36):
    """t after n random row operations over its prime field."""
    p = t.ring.p
    ops = [(*rng.sample(range(t.h), 2), rng.randrange(1, p)) for _ in range(n)]
    return change_basis(t, p, ops)


def test_adapt_basis_postconditions():
    rng = random.Random(0)
    for t in field_pool() + [_dense(t, rng) for t in prime_field_pool()]:
        fs, h = t.ring, t.h
        front, tail = adapt_basis(t)
        z, d = centre(t).vectors, derived(t).vectors
        assert len(front) + len(z) == h and len(tail) == len(d)
        # the e_j, j in front, together with z span g
        assert len(echelon([t.basis_vector(j) for j in front] + z, fs)) == h
        # every bracket v equals sum_k v[tail_k] D_k over the echelon rows D_k
        for row in t.lam.values():
            v = [row.get(l, fs.zero()) for l in range(h)]
            w = [fs.zero()] * h
            for k, D in zip(tail, d):
                w = [fs.add(x, fs.mul(v[k], y)) for x, y in zip(w, D)]
            assert w == v, t.name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_theoremB_in_a_dense_basis(seed):
    rng = random.Random(seed)
    fs = make_field(5)
    for t in (free_table(3, 2, fs), free_table(2, 4, fs)):
        assert vectors_theoremB(_dense(t, rng)) == vectors_theoremB(t), t.name
    t = boston_isaacs_table(2, 7)
    assert pfaffian_case_vectors(_dense(t, rng)) == pfaffian_case_vectors(t)


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


def test_restriction_of_scalars_keeps_the_group():
    for t in dual_pool() + modular_pool():
        r = restrict_scalars(t)
        if getattr(t.ring, "f", 1) == 1:
            assert r is t, t.name  # GF(p) and Z/p^e share the table's memo
            continue
        f = t.ring.f
        validate(r)
        assert (r.ring.q, r.h, r.name) == (t.ring.p, t.h * f, t.name)
        assert r.ring.q ** r.h == t.ring.q ** t.h  # |G| = q^h = p^(hf)
        assert nilpotency_class(r) == nilpotency_class(t), t.name
        assert (centre(r).dim, derived(r).dim) == (f * centre(t).dim, f * derived(t).dim)
        assert restrict_scalars(t) is r  # kept in the table's memo
    # heis/GF(9), t^2 = -1: [t e_1, t e_2] = t^2 e_3 = 2 e_3 and
    # [e_1, t e_2] = [t e_1, e_2] = t e_3, at index i f + s
    assert restrict_scalars(heisenberg(make_field(3, 2))).lam == {
        (0, 2): {4: 1}, (0, 3): {5: 1}, (1, 2): {5: 1}, (1, 3): {4: 2}}


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
    # the modular pool, its dense-basis copies, and the field tables with
    # q^h <= 3125; over a field the reduced echelon basis is unique
    rng = random.Random(0)
    modular = modular_pool()
    dense = [change_basis(t, t.ring.m, [(*rng.sample(range(t.h), 2),
                                         rng.randrange(1, t.ring.m))
                                        for _ in range(36)])
             for t in modular]
    fields = [heisenberg(make_field(3)), heisenberg(make_field(5)),
              heisenberg(make_field(3, 2)), free_table(2, 3, make_field(5))]
    for t in modular + dense + fields:
        R, h = t.ring, t.h
        want = [x for x in product(R.elements(), repeat=h)
                if all(R.is_zero(y) for i in range(h)
                       for y in t.bracket(t.basis_vector(i), x))]
        assert centre(t).order() == len(want), t
        if t in fields:
            assert centre(t).vectors == echelon(want, R), t


@pytest.mark.parametrize("ring", [make_field(5), ModRing(5, 2)])
def test_the_series_starts_at_the_derived_algebra(ring):
    t = free_table(2, 3, ring)
    assert lower_central_series(t)[0][1] is derived(t)


def test_sl2_is_not_nilpotent_at_the_first_step():
    # [e0, e1] = e2, [e2, e0] = 2 e0, [e2, e1] = -2 e1: g' = g
    sl2 = LieRing(make_field(5), 3, {(0, 1): {2: 1}, (2, 0): {0: 2}, (2, 1): {1: 3}})
    with pytest.raises(NotNilpotent, match="^lower central series stabilizes at order 125$"):
        validate(sl2)

