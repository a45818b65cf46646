"""Randomized invariants.

Each hypothesis test declares its example budget explicitly; the budgets
are summed in RANDOM_CASE_BUDGET and checked by the acceptance suite, so
shrinking one means growing another.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pgc import (
    make_field,
    ModRing,
    LieRing,
    build_commutator_matrices,
    rank, pfaffian,
    free_table, validate,
    boston_isaacs_table, quadric_table, fm_table, isaacs_cd_table,
    vectors_theoremB, vectors_dual,
    conjugacy_census, coadjoint_census,
    bch, bch_matrix_sum, matrix_exp, matrix_log,
    star, star_inverse,
)
from pgc.enumctr import _kernel_census, _point_census
from pgc.freenil import witt
from pgc.liecore import nilpotency_class, smith_mod, span_mod
from pgc.lazard import _mat_mul

from conftest import change_basis, form_matrix, scaled_free_quotient, skew_form
from test_liecore import _generated, _identity, _matmul_mod

N_BILINEAR = 400
N_EVEN_RANK = 300
N_PFAFFIAN = 200
N_BCH_MATRIX = 120
N_STAR_ASSOC = 100
N_CLASS2_ROUTES = 60
N_SMITH_CLOSURE = 60
N_EXTENSION_ORACLE = 30
N_FREE_QUOTIENTS = 40
N_KERNEL_CENSUS = 100
N_SKEW_CENSUS = 100
N_SCALED_QUOTIENTS = 12
N_FIELD_QUOTIENTS = 15
RANDOM_CASE_BUDGET = (N_BILINEAR + N_EVEN_RANK + N_PFAFFIAN + N_BCH_MATRIX
                      + N_STAR_ASSOC + N_CLASS2_ROUTES + N_SMITH_CLOSURE
                      + N_EXTENSION_ORACLE + N_FREE_QUOTIENTS + N_KERNEL_CENSUS
                      + N_SKEW_CENSUS + N_SCALED_QUOTIENTS + N_FIELD_QUOTIENTS)

_SETTINGS = dict(deadline=None, derandomize=True)


def _heis(fs):
    return LieRing(fs, 3, {(0, 1): {2: 1}}, "heis")


def _prep(t):
    A, B = build_commutator_matrices(t)
    return t.ring, A.nvars, B.nvars, A, B


_POOL = [_prep(t) for t in (
    _heis(make_field(3)),
    _heis(make_field(5)),
    _heis(make_field(3, 2)),
    free_table(2, 3, make_field(5)),
    free_table(3, 2, make_field(3)),
    quadric_table(3),
    boston_isaacs_table(1, 5),
    fm_table(1, 2, 3),
    isaacs_cd_table([1, 2], 3),
)]


def _dot(fs, u, v):
    acc = fs.zero()
    for x, y in zip(u, v):
        acc = fs.add(acc, fs.mul(x, y))
    return acc


@st.composite
def _table_point(draw):
    fs, a, b, A, B = _POOL[draw(st.integers(0, len(_POOL) - 1))]
    pt = lambda n: tuple(fs.from_int(draw(st.integers(0, fs.q - 1)))
                         for _ in range(n))
    return fs, a, b, A, B, pt


@settings(max_examples=N_BILINEAR, **_SETTINGS)
@given(_table_point())
def test_bilinear_pairing_identity(tp):
    # <[v, x], y> read off A equals v^T B(y) x for all v, x in the
    # cocentre and y in the derived coordinates
    fs, a, b, A, B, pt = tp
    v, x, y = pt(a), pt(a), pt(b)
    Ax = A.evaluate(x)
    w = [_dot(fs, [Ax[i][k] for i in range(a)], v) for k in range(b)]
    lhs = _dot(fs, w, y)
    By = B.evaluate(y)
    rhs = _dot(fs, v, [_dot(fs, row, x) for row in By])
    assert lhs == rhs


@settings(max_examples=N_EVEN_RANK, **_SETTINGS)
@given(_table_point())
def test_skew_matrix_rank_is_even(tp):
    fs, a, b, A, B, pt = tp
    assert rank(B.evaluate(pt(b)), fs) % 2 == 0


@st.composite
def _skew_matrix(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    n = draw(st.sampled_from((2, 4, 6)))
    fs = make_field(p)
    m = [[fs.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = fs.from_int(draw(st.integers(0, p - 1)))
            m[i][j] = e
            m[j][i] = fs.neg(e)
    return fs, m


def _det(fs, rows):
    m = [list(r) for r in rows]
    n = len(m)
    det = fs.one()
    for c in range(n):
        piv = next((r for r in range(c, n) if not fs.is_zero(m[r][c])), None)
        if piv is None:
            return fs.zero()
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = fs.neg(det)
        det = fs.mul(det, m[c][c])
        inv = fs.inv(m[c][c])
        for r in range(c + 1, n):
            if fs.is_zero(m[r][c]):
                continue
            f = fs.mul(m[r][c], inv)
            for cc in range(c, n):
                m[r][cc] = fs.sub(m[r][cc], fs.mul(f, m[c][cc]))
    return det


@settings(max_examples=N_PFAFFIAN, **_SETTINGS)
@given(_skew_matrix())
def test_pfaffian_squares_to_determinant(sm):
    fs, m = sm
    pf = pfaffian(m, fs)
    assert fs.mul(pf, pf) == _det(fs, m)


@st.composite
def _nilpotent_pair(draw):
    ent = st.integers(-3, 3)
    mk = lambda: [[Fraction(draw(ent)) if j > i else Fraction(0)
                   for j in range(5)] for i in range(5)]
    return mk(), mk()


@settings(max_examples=N_BCH_MATRIX, **_SETTINGS)
@given(_nilpotent_pair())
def test_bch_agrees_with_matrix_log_exp(mn):
    # strictly upper triangular 5x5: all products of length 5 vanish,
    # so the degree-4 series is exact
    M, N = mn
    direct = matrix_log(_mat_mul(matrix_exp(M), matrix_exp(N)))
    assert bch_matrix_sum(bch(4), M, N) == direct


@st.composite
def _matrix_space(draw):
    """An R x C matrix of linear forms in n variables over a small field,
    about half of its coefficients zero, with q^n <= 729."""
    fs = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    n = draw(st.integers(0, 4).filter(lambda n: fs.q**n <= 729))
    coeff = st.sampled_from([0] * fs.q + list(range(fs.q))).map(fs.from_int)
    return form_matrix(fs, rows, cols, n,
                       [[[draw(coeff) for _ in range(n)] for _ in range(cols)]
                        for _ in range(rows)])


@settings(max_examples=N_KERNEL_CENSUS, **_SETTINGS)
@given(_matrix_space())
def test_kernel_census_equals_point_census(M):
    assert _kernel_census(M, 1) == _point_census(M, 1)


@st.composite
def _skew_space(draw):
    """A C x C skew matrix of linear forms in n variables over a small
    field, about half of its coefficients zero, with q^n <= 729. C = 6 is
    drawn over GF(2) and GF(3) only, where levels 1, 2 and 6 rank at most
    11,376 subspaces."""
    size = draw(st.integers(0, 6))
    fields = [(2, 1), (3, 1)] + [(2, 2), (5, 1), (3, 2)] * (size < 6)
    fs = make_field(*draw(st.sampled_from(fields)))
    n = draw(st.integers(0, 4).filter(lambda n: fs.q**n <= 729))
    coeff = st.sampled_from([0] * fs.q + list(range(fs.q))).map(fs.from_int)
    return skew_form(fs, size, n, lambda: draw(coeff))


@settings(max_examples=N_SKEW_CENSUS, **_SETTINGS)
@given(_skew_space())
def test_skew_kernel_census_equals_point_census(M):
    assert _kernel_census(M, 1) == _point_census(M, 1)


_F23 = free_table(2, 3, make_field(5))
_PT5 = st.tuples(*([st.integers(0, 4)] * 5))


@settings(max_examples=N_STAR_ASSOC, **_SETTINGS)
@given(_PT5, _PT5, _PT5)
def test_star_group_axioms_random_points(u, v, w):
    t = _F23
    assert star(star(u, v, t), w, t) == star(u, star(v, w, t), t)
    zero = (0,) * 5
    assert star(u, zero, t) == tuple(u)
    assert star(u, star_inverse(u, t), t) == zero


@st.composite
def _class2_pair(draw):
    """(table, its image under a random unimodular base change, |G|): an
    alternating map from r bottom coordinates into s central top ones over
    Z/p^e, or over GF(p) when e = 1, with |G| = p^(e h) <= 10^5."""
    p, e = draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]))
    m = p**e
    r = draw(st.integers(2, 4))
    s = draw(st.integers(1, 3).filter(lambda s: m ** (r + s) <= 10**5))
    h = r + s
    ring = make_field(p) if e == 1 and draw(st.booleans()) else ModRing(p, e)
    res = st.integers(0, m - 1)
    table = LieRing(ring, h, {(i, j): {r + k: draw(res) for k in range(s)}
                              for i in range(r) for j in range(i + 1, r)})
    ops = [(*draw(st.permutations(range(h)))[:2], draw(st.integers(1, m - 1)))
           for _ in range(draw(st.integers(0, 3 * h)))]
    return table, change_basis(table, m, ops), m**h


@settings(max_examples=N_CLASS2_ROUTES, **_SETTINGS)
@given(_class2_pair())
def test_class2_routes_agree_on_random_tables(pair):
    table, changed, order = pair
    cc, ch = vectors_dual(changed)
    assert (cc, ch) == vectors_dual(table)
    assert cc.mass(1) == ch.mass(2) == order
    assert cc.total() == ch.total()
    if not isinstance(changed.ring, ModRing):
        assert (cc, ch) == vectors_theoremB(changed)
    assert cc == conjugacy_census(changed)
    assert ch == coadjoint_census(changed)


@st.composite
def _class2_extension_table(draw):
    """An alternating map from r bottom coordinates into s central top ones
    over GF(9) or GF(25), with random field constants and |G| <= 10^5."""
    fs = make_field(*draw(st.sampled_from([(3, 2), (5, 2)])))
    r = draw(st.integers(2, 4).filter(lambda r: fs.q ** (r + 1) <= 10**5))
    s = draw(st.integers(1, 3).filter(lambda s: fs.q ** (r + s) <= 10**5))
    res = st.integers(0, fs.q - 1).map(fs.from_int)
    return LieRing(fs, r + s, {(i, j): {r + k: draw(res) for k in range(s)}
                               for i in range(r) for j in range(i + 1, r)})


@settings(max_examples=N_EXTENSION_ORACLE, **_SETTINGS)
@given(_class2_extension_table())
def test_oracle_equals_theoremB_over_extension_fields(table):
    cc, ch = vectors_theoremB(table)
    assert cc == conjugacy_census(table)
    assert ch == coadjoint_census(table)


# (r, c, p) with p > c: the quotients have class c, up to 4
_FREE_SHAPES = [(2, 4, 5), (3, 3, 5), (2, 3, 5), (2, 3, 7),
                (3, 2, 3), (3, 2, 5), (3, 2, 7), (4, 2, 3)]


@st.composite
def _free_quotient(draw, r, c, p):
    """f(r,c) over GF(p) modulo the kernel of a random map Q from its top
    layer onto GF(p)^k, k >= 1, so the class stays c. The top layer is
    central, so any subspace of it is an ideal; the quotient has
    |G| = p^(h - top + k) <= 10^5."""
    fs = make_field(p)
    free = free_table(r, c, fs)
    top = len(free.hall.layers[-1])
    low = free.h - top
    k = draw(st.integers(1, top).filter(lambda k: p ** (low + k) <= 10**5))
    Q = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=k, max_size=k),
                      min_size=top, max_size=top)
             .filter(lambda Q: rank(Q, fs) == k))
    brackets = {}
    for (i, j), row in free.lam.items():
        image = {l: v for l, v in row.items() if l < low}
        for col in range(k):
            image[low + col] = sum(row.get(low + u, 0) * Q[u][col]
                                   for u in range(top)) % p
        brackets[(i, j)] = image
    return LieRing(fs, low + k, brackets, f"f({r},{c})/ker Q")


@pytest.mark.parametrize("shape", _FREE_SHAPES,
                         ids=lambda s: "f({},{})/GF({})".format(*s))
@settings(max_examples=N_FREE_QUOTIENTS // len(_FREE_SHAPES), **_SETTINGS)
@given(data=st.data())
def test_routes_agree_on_free_quotients(shape, data):
    table = data.draw(_free_quotient(*shape))
    validate(table)
    cc, ch = vectors_theoremB(table)
    assert (cc, ch) == vectors_dual(table)
    assert cc == conjugacy_census(table)
    assert ch == coadjoint_census(table)
    assert cc.mass(1) == ch.mass(2) == table.ring.q ** table.h


@st.composite
def _scaled_quotient(draw):
    """(table, base change ops, m, c) for a quotient of class c = 3 or 4
    of f(r,c) over Z/p^e (see scaled_free_quotient). The shift is
    a(w) = w (e - 1) - d(w) with d superadditive, d(1) = 0 and
    d(w) <= (e - 1)(w - 1) / (c - 1), so a is subadditive, nonnegative and
    c a(1) - a(c) = d(c) < e; the line has a unit coordinate."""
    r, c, p, e = draw(st.sampled_from([(2, 3, 5, 2), (2, 3, 7, 2), (2, 3, 5, 3),
                                       (2, 4, 5, 2)]))
    m = p**e
    d = [0]
    for w in range(2, c + 1):
        lo = max(d[x - 1] + d[w - x - 1] for x in range(1, w))
        d.append(draw(st.integers(lo, (e - 1) * (w - 1) // (c - 1))))
    top = witt(r, c)
    line = draw(st.lists(st.integers(0, m - 1), min_size=top, max_size=top)
                .filter(lambda v: any(x % p for x in v)))
    table = scaled_free_quotient(r, c, ModRing(p, e),
                                 [w * (e - 1) - dw for w, dw in enumerate(d, 1)], line)
    h = table.h
    ops = [(*draw(st.permutations(range(h)))[:2], draw(st.integers(1, m - 1)))
           for _ in range(draw(st.integers(1, 2 * h)))]
    return table, ops, m, c


@settings(max_examples=N_SCALED_QUOTIENTS, **_SETTINGS)
@given(_scaled_quotient())
def test_dual_route_on_scaled_free_quotients(case):
    # Z/p^e tables of class 3 and 4 whose constants carry powers of p: the
    # oracle checks the dual route up to 10^6 elements, a base change past it
    table, ops, m, c = case
    validate(table)
    assert nilpotency_class(table) == c
    cc, ch = vectors_dual(table)
    assert cc.mass(1) == ch.mass(2) == m**table.h
    assert cc.total() == ch.total()
    if m**table.h <= 10**6:
        assert cc == conjugacy_census(table)
        assert ch == coadjoint_census(table)
    else:
        assert (cc, ch) == vectors_dual(change_basis(table, m, ops))


@st.composite
def _field_quotient(draw):
    """(table, c) for a quotient of class c = 3 or 4 of f(r,c) over GF(q)
    by a line of its top layer (see scaled_free_quotient, shift 0), in a
    random basis over GF(p). f(2,4)/GF(25) is left out: its dual route
    ranks about 2.4 million points a side."""
    r, c, p, f = draw(st.sampled_from([(2, 3, 5, 1), (2, 3, 7, 1), (2, 3, 5, 2),
                                       (2, 4, 5, 1), (2, 4, 7, 1)]))
    fs = make_field(p, f)
    top = witt(r, c)
    line = draw(st.lists(st.integers(0, fs.q - 1), min_size=top, max_size=top)
                .filter(any))
    table = scaled_free_quotient(r, c, fs, [0] * c, [fs.from_int(x) for x in line])
    h = table.h
    ops = [(*draw(st.permutations(range(h)))[:2], draw(st.integers(1, p - 1)))
           for _ in range(draw(st.integers(1, 2 * h)))]
    return change_basis(table, p, ops), c


@settings(max_examples=N_FIELD_QUOTIENTS, **_SETTINGS)
@given(_field_quotient())
def test_theoremB_on_field_quotients(case):
    # class 3 and 4 over GF(q) in a dense basis: Theorem B against the dual
    # route, and against the oracle up to 10^6 elements
    table, c = case
    validate(table)
    assert nilpotency_class(table) == c
    cc, ch = vectors_theoremB(table)
    assert (cc, ch) == vectors_dual(table)
    assert cc.mass(1) == ch.mass(2) == table.ring.q ** table.h
    if table.ring.q ** table.h <= 10**6:
        assert cc == conjugacy_census(table)
        assert ch == coadjoint_census(table)


def test_random_case_budget_is_large():
    assert RANDOM_CASE_BUDGET >= 1000


def test_bch_denominators_have_small_prime_factors():
    series = bch(6)
    for deg, row in series.terms.items():
        for coeff in row.values():
            d = coeff.denominator
            for p in (2, 3, 5):
                while d % p == 0:
                    d //= p
            assert d == 1, (deg, coeff)


def test_mass_identities_on_enumerated_vectors():
    tables = [
        _heis(make_field(3)),
        _heis(make_field(3, 2)),
        free_table(2, 3, make_field(5)),
        quadric_table(3),
        fm_table(1, 2, 3),
    ]
    for t in tables:
        cc, ch = vectors_theoremB(t)
        order = t.ring.q ** t.h
        assert cc.mass(1) == order, t.name
        assert ch.mass(2) == order, t.name
        assert cc.total() == ch.total(), t.name


@st.composite
def _dense_vectors(draw):
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2),
                                 (5, 2), (2, 3), (3, 3), (7, 2), (2, 4)]))
    m = p**e
    h = draw(st.integers(1, 6).filter(lambda h: m**h <= 10**5))
    gens = draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * h), max_size=h + 1))
    return p, e, h, gens


@settings(max_examples=N_SMITH_CLOSURE, **_SETTINGS)
@given(_dense_vectors())
def test_smith_mod_matches_closure_on_dense_vectors(case):
    p, e, h, gens = case
    m = p**e
    d, V, Vinv = smith_mod(gens, m, h)
    assert _matmul_mod(V, Vinv, m) == _identity(h)
    assert d == sorted(d) and all(di in {p**k for k in range(e + 1)} for di in d)
    M = _generated(gens, m, h)
    sub = span_mod(gens, ModRing(p, e), h)
    assert sub.order() == len(M)
    assert _generated(sub.vectors, m, h) == M
