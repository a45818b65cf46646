"""Acceptance: the ten contract checks, one test function per criterion."""

import time

from fractions import Fraction

import numpy as np
import pytest

from pgc import (
    make_field,
    LieRing, ModRing,
    free_table, witt,
    build_commutator_matrices,
    rank, pfaffian,
    rank_distribution_A, rank_distribution_B,
    vectors_theoremB, vectors_dual, class_number,
    s_size_from_mu, s_size_from_nu,
    class_vector_closed, class_number_closed,
    char_vector_class2, fixture_vectors,
    conjugacy_census, coadjoint_census,
    boston_isaacs_table, quadric_table, isaacs_cd_table, fm_table,
    pfaffian_case_vectors, HypothesesFailed,
    poly_fit, QPolynomial,
    bch, bch_matrix_sum, matrix_exp, matrix_log,
)
from pgc.lazard import _mat_mul

from test_properties import (
    RANDOM_CASE_BUDGET,
    N_BILINEAR, N_EVEN_RANK, N_PFAFFIAN, N_BCH_MATRIX, N_STAR_ASSOC,
)


def _heis(fs):
    return LieRing(fs, 3, {(0, 1): {2: 1}}, "heis")


def _vec(v):
    return dict(v.items())


def test_criterion_01_heisenberg_vectors_exact_and_fast():
    """cc = (q, q^2-1) at sizes (1, q), ch = (q^2, q-1) at degrees (1, q),
    k = q^2+q-1, for q in {3, 5, 7, 9, 25}; under a second per field."""
    for p, f in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        fs = make_field(p, f)
        q = fs.q
        t0 = time.perf_counter()
        cc, ch = vectors_theoremB(free_table(2, 2, fs))
        elapsed = time.perf_counter() - t0
        assert _vec(cc) == {0: q, f: q**2 - 1}, q
        assert _vec(ch) == {0: q**2, f: q - 1}, q
        assert cc.total() == ch.total() == q**2 + q - 1, q
        assert elapsed < 1.0, (q, elapsed)


def test_criterion_02_class2_skew_rank_census_matches_closed_form():
    """Enumerated halved-rank census of the generic skew matrix of
    f_{r,2} equals the closed-form character vector, r in {2,3,4},
    q in {3,5}."""
    for r in (2, 3, 4):
        for qv in (3, 5):
            fs = make_field(qv)
            t = free_table(r, 2, fs)
            _, B = build_commutator_matrices(t)
            assert (B.rows, B.nvars) == (r, witt(r, 2))
            nu = rank_distribution_B(B)
            ch = char_vector_class2(r, qv)
            keys = {i for i, n in nu.items()} | {i for i, n in ch.items() if n}
            for i in keys:
                # nu_i = ch_i q^{2i-r} cleared of denominators
                assert nu[i] * qv**r == ch[i] * qv ** (2 * i), (r, qv, i)


def test_criterion_03_free_fixture_char_vectors_by_enumeration():
    """f(2,3) over GF(5)/GF(7), f(2,4) over GF(5), and the rank census
    route for f(3,3) over GF(3) reproduce the fixture polynomials."""
    for qv in (5, 7):
        _, ch = vectors_theoremB(free_table(2, 3, make_field(qv)))
        assert _vec(ch) == {0: qv**2, 1: qv**3 - 1}, qv
    _, ch = vectors_theoremB(free_table(2, 4, make_field(5)))
    q = 5
    assert _vec(ch) == {0: q**2,
                        1: q**4 + q**3 - q**2 - 1,
                        2: q**4 - q**2 - q + 1}
    # q = 3 sits at the p = c boundary, so count rank loci directly and
    # apply the same arithmetic the counting route would use
    q = 3
    t = free_table(3, 3, make_field(3))
    a, b = 6, 11
    A, B = build_commutator_matrices(t)
    assert (A.nvars, B.nvars) == (a, b)
    mu = rank_distribution_A(A)
    nu = rank_distribution_B(B)
    assert mu == {0: 1, 3: 26, 5: 702}
    assert nu == {0: 1, 1: 962, 2: 75582, 3: 100602}
    ch3 = {i: n * q ** (t.h - b) // q ** (2 * i) for i, n in nu.items()}
    assert ch3 == {0: 27, 1: 2886, 2: 25194, 3: 3726}
    assert ch3 == _vec(fixture_vectors(3, 3, 3))


def test_criterion_04_oracle_censuses_agree_with_counting_paths():
    """Lazard/orbit brute force equals the matrix (or dual) route on five
    small tables."""
    field_tables = [
        _heis(make_field(3)),
        _heis(make_field(5)),
        free_table(3, 2, make_field(3)),
        free_table(2, 3, make_field(5)),
    ]
    for t in field_tables:
        cc, ch = vectors_theoremB(t)
        assert _vec(conjugacy_census(t)) == _vec(cc), t.name
        assert _vec(coadjoint_census(t)) == _vec(ch), t.name
    t9 = LieRing(ModRing(3, 2), 3, {(0, 1): {2: 1}}, "heis Z/9")
    cc, ch = vectors_dual(t9)
    assert _vec(conjugacy_census(t9)) == _vec(cc)
    assert _vec(coadjoint_census(t9)) == _vec(ch)


def test_criterion_05_closed_class_vector_equals_oracle():
    """class_vector_closed(2,3,5) = conjugacy census of f(2,3) over
    GF(5) = {1: 25, p^2: 124}; 149 classes."""
    closed = class_vector_closed(2, 3, 5)
    census = conjugacy_census(free_table(2, 3, make_field(5)))
    assert _vec(closed) == _vec(census) == {0: 25, 2: 124}
    assert closed.total() == 149
    assert class_number_closed(2, 3, 5) == 149


def test_criterion_06_f25_sum_identity_and_expansion():
    """The four displayed character counts of f(2,5) sum to the closed
    class number 2q^8+q^7-q^5-q^4, and the degree-q^3 entry expands in
    v = q-1 as v(v+2)(v+1)^2(v^4+4v^3+6v^2+3v-1), one coefficient
    negative."""
    nodes = [7, 11, 13, 17, 19, 23, 29, 31, 37]
    ch = {qv: fixture_vectors(2, 5, qv) for qv in nodes}
    target = QPolynomial([0, 0, 0, 0, -1, -1, 0, 1, 2])
    assert poly_fit([(qv, ch[qv].total()) for qv in nodes],
                    integral=True) == target
    assert poly_fit([(qv, class_vector_closed(2, 5, qv).total())
                     for qv in nodes], integral=True) == target

    entry3 = poly_fit([(qv, ch[qv][3]) for qv in nodes], integral=True)
    expansion = entry3.qminus1_coefficients()

    def vmul(*ps):
        out = [1]
        for poly in ps:
            nxt = [0] * (len(out) + len(poly) - 1)
            for i, x in enumerate(out):
                for j, y in enumerate(poly):
                    nxt[i + j] += x * y
            out = nxt
        return out

    factored = vmul([0, 1], [2, 1], [1, 1], [1, 1], [-1, 3, 6, 4, 1])
    assert expansion == factored
    assert expansion == [0, -2, 1, 23, 49, 49, 27, 8, 1]
    assert sum(1 for c in expansion if c < 0) == 1


def test_criterion_07_pfaffian_case_formulas_match_enumeration():
    """boston_isaacs over F_5 and F_7, every unit alpha: formula vectors
    equal enumerated vectors and k = p^6+p^3-1+n(p^2-1)(p-1); the
    quadric table is enumerable but rejected by the formulas."""
    for p in (5, 7):
        ks = set()
        for alpha in range(1, p):
            t = boston_isaacs_table(alpha, p)
            cc_f, ch_f, k, rep = pfaffian_case_vectors(t)
            cc_e, ch_e = vectors_theoremB(t)
            assert _vec(cc_f) == _vec(cc_e), (p, alpha)
            assert _vec(ch_f) == _vec(ch_e), (p, alpha)
            assert k == cc_e.total() == ch_e.total(), (p, alpha)
            assert k == p**6 + p**3 - 1 + rep.n * (p**2 - 1) * (p - 1)
            ks.add(k)
        assert len(ks) > 1, p

    tq = quadric_table(3)
    cc, ch = vectors_theoremB(tq)
    q = 3
    assert _vec(cc) == {0: q**4, 2: 2 * (q**2 - 1) * q**2,
                        3: q * (q**2 - 1) ** 2}
    assert _vec(ch) == {0: q**4, 1: q**2 * (q - 1) * (q + 1) ** 2,
                        2: q**4 - 1 - (q + 1) ** 2 * (q - 1)}
    with pytest.raises(HypothesesFailed):
        pfaffian_case_vectors(tq)


def test_criterion_08_prescribed_degree_and_size_sets():
    """isaacs_cd tables give cd = {p^i : i in I or i = 0} for four index
    sets at p in {3,5}; fm(2,3,5) gives cd = {1,25}, cs = {1,5,25,125}."""
    for I in ([1], [2], [1, 2], [1, 3]):
        for p in (3, 5):
            _, ch = vectors_theoremB(isaacs_cd_table(I, p))
            assert {p**i for i, n in ch.items() if n} == \
                {p**i for i in [0] + I}, (I, p)
    cc, ch = vectors_theoremB(fm_table(2, 3, 5))
    assert {5**i for i, n in ch.items() if n} == {1, 25}
    assert {5**i for i, n in cc.items() if n} == {1, 5, 25, 125}


def test_criterion_09_property_suite_budgets_and_spot_checks():
    """The randomized suite runs over a thousand cases across the listed
    invariants; each family is spot-checked here on one instance."""
    assert RANDOM_CASE_BUDGET >= 1000
    assert min(N_BILINEAR, N_EVEN_RANK, N_PFAFFIAN,
               N_BCH_MATRIX, N_STAR_ASSOC) >= 100

    fs = make_field(5)
    t = free_table(2, 3, fs)
    A, B = build_commutator_matrices(t)

    # bilinear pairing on one point triple
    v, x, y = (1, 2, 3), (4, 0, 1), (2, 1, 0)
    Ax = A.evaluate(x)
    w = [sum(Ax[i][k] * v[i] for i in range(3)) % 5 for k in range(3)]
    lhs = sum(wk * yk for wk, yk in zip(w, y)) % 5
    By = B.evaluate(y)
    rhs = sum(v[i] * By[i][j] * x[j] for i in range(3) for j in range(3)) % 5
    assert lhs == rhs

    # even rank, and Pf^2 = det on a fixed 4x4 skew instance
    assert rank(B.evaluate(y), fs) % 2 == 0
    sk = [[0, 1, 2, 1], [4, 0, 1, 2], [3, 4, 0, 1], [4, 3, 4, 0]]
    pf = pfaffian(sk, fs)
    assert pf == (1 * 1 - 2 * 2 + 1 * 1) % 5
    det = round(np.linalg.det(np.array(sk, dtype=float)))
    assert pow(pf, 2, 5) == det % 5

    # fibration counts
    mu = rank_distribution_A(A)
    nu = rank_distribution_B(B)
    assert mu.total() == 5**A.nvars
    assert nu.total() == 5**B.nvars
    assert s_size_from_mu(mu, B.nvars, 5) == s_size_from_nu(nu, A.nvars, 5)

    # mass identities and matrix-vs-dual agreement
    cc, ch = vectors_theoremB(t)
    assert cc.mass(1) == ch.mass(2) == 5**t.h
    assert cc.total() == ch.total() == class_number(t)[0]
    dcc, dch = vectors_dual(t)
    assert _vec(dcc) == _vec(cc) and _vec(dch) == _vec(ch)

    # BCH: denominator primes stay at or below the degree, and the
    # nilpotent matrix oracle agrees on one pair
    series = bch(4)
    for row in series.terms.values():
        for c in row.values():
            d = c.denominator
            for p in (2, 3):
                while d % p == 0:
                    d //= p
            assert d == 1
    M = [[Fraction(0), Fraction(1), Fraction(2), Fraction(0), Fraction(1)],
         [Fraction(0)] * 5,
         [Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(3)],
         [Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(2)],
         [Fraction(0)] * 5]
    N = [[Fraction(0), Fraction(2), Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(2)],
         [Fraction(0), Fraction(0), Fraction(0), Fraction(2), Fraction(1)],
         [Fraction(0)] * 5,
         [Fraction(0)] * 5]
    M[1][2] = Fraction(1)
    direct = matrix_log(_mat_mul(matrix_exp(M), matrix_exp(N)))
    assert bch_matrix_sum(series, M, N) == direct


def test_criterion_10_erratum_k_f33_sign_of_the_q8_term():
    """k of f(3,3) is q^9 + 2q^8 - q^6 - q^5 by three routes (a published
    display gives -2q^8; the three routes below all give +2q^8)."""
    target = QPolynomial([0, 0, 0, 0, 0, -1, -1, 0, 2, 1])
    nodes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    # route 1: sum of the displayed character-count polynomials
    assert poly_fit([(qv, fixture_vectors(3, 3, qv).total())
                     for qv in nodes], integral=True) == target
    # route 2: the closed-form class number
    assert poly_fit([(qv, class_number_closed(3, 3, qv)) for qv in nodes],
                    integral=True) == target
    # route 3: rank-census enumeration at q = 3
    t = free_table(3, 3, make_field(3))
    A, _ = build_commutator_matrices(t)
    mu = rank_distribution_A(A)
    k3 = sum(n * 3 ** (t.h - 6) // 3**i for i, n in mu.items())
    assert k3 == 3**8 + 26 * 3**5 + 702 * 3**3 == 31833
    assert target(3) == 31833