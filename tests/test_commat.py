"""Commutator matrices, ranks, Pfaffians, projective censuses."""

import itertools
from functools import reduce
import random
from collections import Counter

import pytest

import numpy as np

import pgc.commat
from pgc import (
    make_field, ModRing,
    NotSkew, BudgetExceeded,
    build_commutator_matrices, rank, batch_rank,
    pfaffian, projective_points, projective_rank_census,
    free_table, quadric_table, boston_isaacs_table,
)
from pgc.commat import build_stacks, echelon_bases, projective_lines, radix, structure_tensor
from pgc.liecore import is_field, smith_mod
from conftest import field_pool, form_matrix, heisenberg, modular_pool


def test_heisenberg_matrices_entrywise():
    t = heisenberg(make_field(5))
    A, B = build_commutator_matrices(t)
    # A(X) = (X's coefficient on the derived coordinate), one column
    assert A.rows == 2 and A.cols == 1 and A.nvars == 2
    assert A.evaluate((1, 0)) == [(0,), (4,)]
    assert A.evaluate((0, 1)) == [(1,), (0,)]
    assert B.rows == 2 and B.cols == 2 and B.nvars == 1 and B.skew
    assert B.evaluate((1,)) == [(0, 1), (4, 0)]


def test_structure_tensor_is_kept_read_only():
    t = free_table(2, 3, make_field(5))
    T = structure_tensor(t)
    assert structure_tensor(t) is T and not T.flags.writeable
    with pytest.raises(ValueError):
        T[0, 1, 2] = 0


def test_structure_tensor_is_the_bracket_codes():
    for t in field_pool() + modular_pool():
        R, h = t.ring, t.h
        code = R.to_int if is_field(R) else (lambda c: c % R.m)
        T = structure_tensor(t)
        assert T.shape == (h, h, h) and T.dtype == np.int64, t.name
        for i, j, k in itertools.product(range(h), repeat=3):
            lam = t.bracket_basis(i, j).get(k, R.zero())
            assert T[i, j, k] == code(lam), (t.name, i, j, k)
            assert T[j, i, k] == code(R.neg(lam)), (t.name, i, j, k)


def test_rank_matches_batch_rank():
    for fs in (make_field(5), make_field(5, 2)):
        t = free_table(2, 3, fs)
        A, B = build_commutator_matrices(t)
        els = fs.elements()
        pts = list(itertools.product(els, repeat=A.nvars))[:200]
        single = [rank(A.evaluate(x), fs) for x in pts]
        stack = np.array([[[fs.to_int(c) for c in row] for row in A.evaluate(x)]
                          for x in pts], dtype=np.int64)
        assert single == list(batch_rank(stack, fs))


def _low_rank_batch(fs, rng, n, R, C):
    """n random R x C matrices over fs of rank at most a random k, built
    from k random rows with the reference arithmetic; some are zero."""
    els = fs.elements()
    out = []
    for _ in range(n):
        k = rng.randint(0, min(R, C))
        basis = [[rng.choice(els) for _ in range(C)] for _ in range(k)]
        rows = []
        for _ in range(R):
            row = [fs.zero()] * C
            for b in basis:
                c = rng.choice(els)
                row = [fs.add(x, fs.mul(c, y)) for x, y in zip(row, b)]
            rows.append(row)
        out.append(rows)
    return out


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (5, 1), (2, 3), (3, 2),
                                 (5, 2), (3, 3)])
def test_batch_rank_matches_reference_rank(p, f):
    import random
    fs = make_field(p, f)
    rng = random.Random(f"{p}^{f}")
    for R, C in [(1, 1), (1, 4), (4, 1), (3, 3), (4, 6), (6, 4)]:
        mats = _low_rank_batch(fs, rng, 40, R, C)
        mats.append([[fs.zero()] * C for _ in range(R)])
        codes = np.array([[[fs.to_int(x) for x in row] for row in m]
                          for m in mats], dtype=np.int64)
        got = batch_rank(codes, fs).tolist()
        assert got == [rank(m, fs) for m in mats], (R, C)
        assert 0 < max(got) and got[-1] == 0
    assert batch_rank(np.zeros((0, 3, 2), dtype=np.int64), fs).size == 0


@pytest.mark.parametrize("p", [14653, 15451, 46337, 1048573])
def test_batch_rank_of_unreduced_entries_matches_reference_rank(p):
    # The staircase p - 1 - min(r, c) gains (p - 1)^2 at every column: its
    # entries reach (C - 1)(p - 1)^2 + p - C unreduced, 1.93e9 at p = 14653
    # and C = 10, the largest prime with 10 columns in int32, and past 2^31
    # at 15451. One column stays in int32 up to p = 46337. With the last
    # entries set to -(C - 1) the largest ones reduce to 0, one rank less.
    fs, rng = make_field(p), np.random.default_rng(p)
    for R, C in [(12, 10), (10, 10), (10, 12), (10, 1), (1, 10), (1, 1), (3, 7)]:
        r, c = np.ogrid[:R, :C]
        stair = (p - 1 - np.minimum(r, c)) % p
        short = stair.copy()
        short[min(R, C) - 1 :, min(R, C) - 1 :] = p + 1 - min(R, C)
        # 30 random matrices, almost surely of full rank, and 30 of rank
        # at most k: k random rows in random combinations
        k = rng.integers(0, min(R, C) + 1, size=30)
        low = [rng.integers(0, p, (R, j)) @ rng.integers(0, p, (j, C)) % p for j in k]
        M = np.concatenate([[stair, short % p, np.full((R, C), p - 1)],
                            rng.integers(0, p, (30, R, C)), low])
        before = M.copy()
        got = batch_rank(M, fs).tolist()
        assert got == [rank(m.tolist(), fs) for m in M], (R, C)
        assert np.array_equal(M, before)  # the batch is left as it is
        assert got[:3] == [min(R, C), min(R, C) - 1, 1] and max(got[3:]) == min(R, C)


@pytest.mark.parametrize("fs", [make_field(7), make_field(3, 2)], ids=["GF(7)", "GF(9)"])
def test_batch_rank_of_empty_shapes(fs):
    for shape in [(0, 3, 2), (0, 0, 0), (3, 0, 4), (3, 4, 0), (2, 0, 0)]:
        ranks = batch_rank(np.zeros(shape, dtype=np.int64), fs)
        assert ranks.tolist() == [0] * shape[0], shape


def _span_order(mat, m):
    """|row span| of an integer matrix over Z/m, by closing {0} under
    adding every multiple of every row."""
    span = np.zeros((1, len(mat[0])), dtype=np.int64)
    for row in mat:
        span = (span[:, None, :] + np.arange(m)[None, :, None] * row) % m
        span = np.unique(span.reshape(-1, len(row)), axis=0)
    return len(span)


def _modular_batch(rng, p, e, n, R, C):
    """n random R x C matrices over Z/p^e: combinations of at most
    min(R, C) rows whose entries carry random powers of p; one is zero."""
    m = p**e
    out = [[[0] * C for _ in range(R)]]
    for _ in range(n - 1):
        basis = [[rng.randrange(m) * p ** rng.randrange(e + 1) % m
                  for _ in range(C)] for _ in range(rng.randint(0, min(R, C)))]
        rows = []
        for _ in range(R):
            row = [0] * C
            for b in basis:
                c = rng.randrange(m)
                row = [(x + c * y) % m for x, y in zip(row, b)]
            rows.append(row)
        out.append(rows)
    return out


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3), (2, 3)])
def test_batch_rank_modular_matches_span_order(p, e):
    import random
    rng = random.Random(f"{p}^{e}")
    R_ = ModRing(p, e)
    for R, C in [(1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (4, 2), (2, 3)]:
        mats = _modular_batch(rng, p, e, 25, R, C)
        got = batch_rank(np.array(mats, dtype=np.int64), R_).tolist()
        assert [p**n for n in got] == [_span_order(m, p**e) for m in mats], (R, C)
        assert got[0] == 0 and len(set(got)) >= 3
    assert batch_rank(np.zeros((0, 3, 2), dtype=np.int64), R_).size == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_batch_rank_over_z_p_is_the_field_rank(p):
    import random
    fs = make_field(p)
    mats = _low_rank_batch(fs, random.Random(p), 60, 4, 5)
    codes = np.array(mats, dtype=np.int64)
    assert (batch_rank(codes.copy(), ModRing(p, 1)) == batch_rank(codes, fs)).all()


def test_oversized_modulus_is_a_budget_error():
    M = np.zeros((1, 2, 2), dtype=np.int64)
    with pytest.raises(BudgetExceeded, match="64-bit"):
        batch_rank(M, ModRing(2, 32))  # (2^32 - 1)^2 overflows int64
    # 2 (2^31 - 1)^2 + 2^31 fits int64: the kernel runs there
    M = np.array([[[1, 0], [0, 2**30]], [[2, 1], [0, 0]], [[2**30, 3], [2**29, 5]]])
    assert batch_rank(M, ModRing(2, 31)).tolist() == [32, 31, 33]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pivot_row_keeps_its_multiple_of_order_p(p):
    # The span of (p, 1) has order p^2; the column pivot p leaves p (p, 1)
    # = (0, p) in its row, which the second column counts. A 1 x 2 shape
    # would be transposed and pivot on the 1.
    M = np.array([[[p, 1], [0, 0]]])
    assert batch_rank(M, ModRing(p, 2)).tolist() == [2]


@pytest.mark.parametrize("p,e", [(2, 3), (5, 2), (3, 3), (5, 3)])
def test_batch_rank_modular_matches_smith_form(p, e):
    m = p**e
    rng, log = np.random.default_rng(m), {p**k: k for k in range(e + 1)}
    for R, C in [(5, 5), (6, 6), (4, 8)]:
        # entries carry random powers of p; half the batch has rank <= k
        M = rng.integers(0, m, (60, R, C)) * p ** rng.integers(0, e + 1, (60, R, C)) % m
        for n, k in enumerate(rng.integers(0, min(R, C) + 1, 30)):
            M[n] = (rng.integers(0, m, (R, k)) * p ** rng.integers(0, e + 1, (R, k))
                    @ rng.integers(0, m, (k, C)) % m)
        # |span| = prod m / d_i over the Smith form d of the rows
        want = [sum(e - log[d] for d in smith_mod(mat.tolist(), m, C)[0]) for mat in M]
        assert batch_rank(M, ModRing(p, e)).tolist() == want, (R, C)
        assert len(set(want)) >= 4


def test_pfaffian_2x2_and_4x4():
    fs = make_field(7)
    assert pfaffian(((0, 3), (4, 0)), fs) == 3
    # Pf of the generic 4x4: a f - b e + c d
    a, b, c, d, e, f = 1, 2, 3, 4, 5, 6
    M = ((0, a, b, c),
         (7 - a, 0, d, e),
         (7 - b, 7 - d, 0, f),
         (7 - c, 7 - e, 7 - f, 0))
    assert pfaffian(M, fs) == (a * f - b * e + c * d) % 7


def test_pfaffian_rejects_non_skew():
    fs = make_field(5)
    with pytest.raises(NotSkew):
        pfaffian(((1, 0), (0, 1)), fs)
    with pytest.raises(NotSkew):
        pfaffian(((0, 2), (2, 0)), fs)


def test_skew_flag_is_checked():
    from pgc import LinearFormMatrix
    fs = make_field(5)
    codes = np.random.default_rng(7).integers(0, 5, (6, 4, 4))
    with pytest.raises(ValueError):
        LinearFormMatrix(fs, codes, skew=True)
    LinearFormMatrix(fs, codes)  # a plain matrix of forms is not checked
    with pytest.raises(NotSkew, match="shape 4 x 3"):
        LinearFormMatrix(fs, codes[:, :, :3], skew=True)
    alt = codes - codes.transpose(0, 2, 1)
    LinearFormMatrix(fs, alt % 5, skew=True)
    sym = (codes + codes.transpose(0, 2, 1)) % 5
    sym[:, range(4), range(4)] = 0
    with pytest.raises(NotSkew, match="not zero"):
        LinearFormMatrix(fs, sym, skew=True)
    with pytest.raises(NotSkew, match="diagonal"):
        LinearFormMatrix(fs, alt % 5 + np.eye(4, dtype=np.int64), skew=True)
    # over GF(9) negation is digit by digit; over GF(2) -1 = 1, so only the
    # diagonal separates alternating from symmetric
    gf9 = make_field(3, 2)
    x = gf9.from_int(5)
    up = np.array([[[0, gf9.to_int(x)], [gf9.to_int(gf9.neg(x)), 0]]])
    LinearFormMatrix(gf9, up, skew=True)
    with pytest.raises(NotSkew):
        LinearFormMatrix(gf9, np.array([[[0, 5], [5, 0]]]), skew=True)
    LinearFormMatrix(make_field(2), np.array([[[0, 1], [1, 0]]]), skew=True)
    with pytest.raises(NotSkew):
        LinearFormMatrix(make_field(2), np.array([[[1, 1], [1, 0]]]), skew=True)


def test_pfaffian_odd_size_is_zero():
    fs = make_field(5)
    assert pfaffian(((0, 1, 2), (4, 0, 3), (3, 2, 0)), fs) == 0


def test_projective_points_count():
    fs = make_field(3)
    pts = list(projective_points(fs, 3))
    assert len(pts) == (27 - 1) // 2  # (q^b - 1)/(q - 1)
    # each point is normalized: first nonzero coordinate is 1
    for p in pts:
        lead = next(x for x in p if x != 0)
        assert lead == 1


def test_projective_rank_census_quadric():
    from pgc import quadric_table
    t = quadric_table(3)
    A, B = build_commutator_matrices(t)
    census, line_ok = projective_rank_census(B)
    # ranks 2 and 4 both occur; the line condition fails for this table
    assert set(census) == {2, 4}
    assert not line_ok
    # rank-2 locus of Y1 Y4 - Y2 Y3 = 0 in P^3(F_3): (q+1)^2 points
    assert census[2] == 16


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (3, 2)],
                         ids=["GF(4)", "GF(5)", "GF(9)"])
def test_projective_rank_census_ranks_in_point_order(p, f, monkeypatch):
    # the ranks projective_lines indexes into are those of projective_points
    fs = make_field(p, f)
    rng = random.Random(p * f)
    mats = [build_commutator_matrices(heisenberg(fs))[1],
            build_commutator_matrices(free_table(3, 2, fs))[1]]
    for b in (2, 3, 4):
        coeffs = [[[rng.choice(fs.elements()) for _ in range(b)] for _ in range(3)]
                  for _ in range(2)]
        mats.append(form_matrix(fs, 2, 3, b, coeffs))
    seen, original = [], pgc.commat.build_stacks

    def recorded(*args):
        stacks = original(*args)
        seen.append(batch_rank(stacks.transpose(2, 0, 1), fs))
        return stacks

    monkeypatch.setattr(pgc.commat, "build_stacks", recorded)
    # the lines build stacks of their own (of the identity form); not these
    monkeypatch.setattr(pgc.commat, "projective_lines", lambda fs, b: iter(()))
    for B in mats:
        seen.clear()
        census, _ = projective_rank_census(B)
        want = [rank(B.evaluate(pt), fs) for pt in projective_points(fs, B.nvars)]
        assert np.concatenate(seen).tolist() == want, (B.nvars, B.rows, B.cols)
        assert census == dict(Counter(want))
    assert {B.nvars for B in mats} == {1, 2, 3, 4}


def _bases(ring, exps, box, start, stop):
    """The bases start..stop-1 of box (s, piv) of echelon_bases, written
    out from its definition: row i has r^(exps[j] - s) at its pivot j and
    runs over d r^(exps[c] - t), d < r^t, at each other column c, t =
    min(exps[c], s - [c < j]); the digits d of the whole basis count up,
    the last fastest."""
    r, (s, piv) = radix(ring)[0], box
    free = [(i, c, min(a, s - (c < j))) for i, j in enumerate(piv)
            for c, a in enumerate(exps) if c not in piv]
    free = [x for x in free if x[2]]
    for digits in itertools.islice(itertools.product(*(range(r**t) for *_, t in free)),
                                   start, stop):
        w = [[0] * len(exps) for _ in piv]
        for i, j in enumerate(piv):
            w[i][j] = r ** (exps[j] - s)
        for (i, c, t), d in zip(free, digits):
            w[i][c] = d * r ** (exps[c] - t)
        yield w


def _stack_by_hand(ring, codes, w):
    """M_W = (sum_c w[i][c] codes[:, :, c]^T for each row i of w) as a
    list of rows, entry by entry in the ring's own arithmetic."""
    n, R, C = codes.shape
    if is_field(ring):
        def entry(i, row, v):
            terms = (ring.mul(ring.from_int(w[i][c]), ring.from_int(int(codes[v, row, c])))
                     for c in range(C))
            return ring.to_int(reduce(ring.add, terms, ring.zero()))
    else:
        def entry(i, row, v):
            return sum(w[i][c] * int(codes[v, row, c]) for c in range(C)) % ring.m
    return [[entry(i, row, v) for v in range(n)] for i in range(len(w)) for row in range(R)]


@pytest.mark.parametrize("ring,exps", [(make_field(5), (1,) * 4), (make_field(3, 2), (1,) * 3),
                                       (ModRing(5, 2), (1, 2, 2, 1)),
                                       (ModRing(3, 3), (1, 2, 2, 3))],
                         ids=["GF(5)", "GF(9)", "Z25", "Z27"])
def test_built_stacks_are_the_sums_over_explicit_bases(ring, exps):
    # every piece of levels 1-3 (level 1 over Z/p^e) at steps 1, 7 and 10^6,
    # alone and three to a block, in both layouts of the elimination; forms
    # with no rows or no variables, one in each layout, at levels 1-2
    r, e = radix(ring)
    m = r**e
    rng = np.random.default_rng(len(exps) * m)
    for R, n, levels in [(2, 3, (1, 2, 3)), (3, 2, (1, 2, 3)), (0, 3, (1, 2)), (3, 0, (1, 2))]:
        codes = rng.integers(0, m, (n, R, len(exps)))
        for k in levels if is_field(ring) else (1,):
            for step in (1, 7, 10**6):
                pieces = list(echelon_bases(ring, exps, k, step))
                blocks = [[p] for p in pieces] + [pieces[i : i + 3]
                                                   for i in range(0, len(pieces), 3)]
                for block in blocks:
                    got = build_stacks(ring, codes, exps, block)
                    got = got.transpose(2, 0, 1) if k * R >= n else got.transpose(2, 1, 0)
                    want = [_stack_by_hand(ring, codes, w)
                            for piece in block for w in _bases(ring, exps, *piece)]
                    assert (got % m).tolist() == want, (R, n, k, step, block)


def _lines_by_pairs(fs, b):
    """Every line of P^{b-1}(F_q) as a set of point indices, built from
    each pair of points with the reference arithmetic."""
    pts = projective_points(fs, b)
    index = {pt: n for n, pt in enumerate(pts)}
    lines = set()
    for p1, p2 in itertools.combinations(pts, 2):
        line = {index[p2]}
        for t in fs.elements():
            v = [fs.add(x, fs.mul(t, y)) for x, y in zip(p1, p2)]
            inv = fs.inv(next(c for c in v if not fs.is_zero(c)))
            line.add(index[tuple(fs.mul(inv, c) for c in v)])
        lines.add(frozenset(line))
    return lines


@pytest.mark.parametrize("p,f,b", [(2, 1, 1), (2, 1, 2), (3, 1, 3), (2, 2, 3),
                                   (3, 1, 4), (2, 2, 4), (3, 2, 2), (2, 1, 5)])
def test_projective_lines_visits_each_line_once(p, f, b):
    fs = make_field(p, f)
    q = fs.q
    lines = [frozenset(r) for arr in projective_lines(fs, b) for r in arr.tolist()]
    # Gaussian binomial [b choose 2]_q
    assert len(lines) == (q**b - 1) * (q ** (b - 1) - 1) // ((q**2 - 1) * (q - 1))
    assert all(len(line) == q + 1 for line in lines)
    assert set(lines) == _lines_by_pairs(fs, b)


def test_projective_line_condition_on_catalog_tables():
    # the census and line condition each table gave when every line was
    # built once per pair of its points
    want = [(quadric_table(3), {2: 16, 4: 24}, False),
            (quadric_table(9), {2: 100, 4: 720}, False),
            (boston_isaacs_table(1, 3), {4: 6, 6: 7}, True),
            (boston_isaacs_table(1, 5), {4: 7, 6: 24}, True),
            (boston_isaacs_table(2, 11), {4: 16, 6: 117}, True)]
    for t, census, line_ok in want:
        _, B = build_commutator_matrices(t)
        assert projective_rank_census(B) == (census, line_ok), t.name


def test_line_condition_counts_every_point_of_a_line():
    # P^1(F_2) is one line of 3 points; diag(Y2, Y1 + Y2) has full rank
    # only at (0, 1), the point of the line's second echelon row, and
    # diag(Y1, Y1 + Y2) only at (1, 0)
    fs = make_field(2)
    for (a, b), census in [(((0, 1), (1, 1)), {2: 1, 1: 2}),
                           (((1, 0), (1, 1)), {2: 1, 1: 2})]:
        coeffs = [[list(a), [0, 0]], [[0, 0], list(b)]]
        M = form_matrix(fs, 2, 2, 2, coeffs)
        assert projective_rank_census(M) == (census, True)
