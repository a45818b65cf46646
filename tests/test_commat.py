"""Commutator matrices, ranks, Pfaffians, projective censuses."""

import itertools

import pytest

from pgc import (
    make_field, LieRing,
    NotAdapted, NotSkew,
    build_commutator_matrices, rank, batch_rank,
    pfaffian, projective_points, projective_rank_census,
    adapt_basis, free_table,
)
from conftest import heisenberg


def test_heisenberg_matrices_entrywise():
    t = heisenberg(make_field(5))
    A, B = build_commutator_matrices(t, 2, 1)
    # A(X) = (X's coefficient on the derived coordinate), one column
    assert A.rows == 2 and A.cols == 1 and A.nvars == 2
    assert A.evaluate((1, 0)) == [(0,), (4,)]
    assert A.evaluate((0, 1)) == [(1,), (0,)]
    assert B.rows == 2 and B.cols == 2 and B.nvars == 1 and B.skew
    assert B.evaluate((1,)) == [(0, 1), (4, 0)]


def test_not_adapted_rejected():
    fs = make_field(3)
    # derived coordinate sits in the middle, so the window claim is false
    t = LieRing(fs, 3, {(0, 2): {1: 1}})
    with pytest.raises(NotAdapted):
        build_commutator_matrices(t, 2, 1)


def test_rank_matches_batch_rank():
    import numpy as np
    for fs in (make_field(5), make_field(5, 2)):
        t = free_table(2, 3, fs)
        ab, adapted = adapt_basis(t)
        A, B = build_commutator_matrices(adapted, ab.a, ab.b)
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
    import numpy as np
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
    ab, adapted = adapt_basis(t)
    A, B = build_commutator_matrices(adapted, ab.a, ab.b)
    census, line_ok = projective_rank_census(B)
    # ranks 2 and 4 both occur; the line condition fails for this table
    assert set(census) == {2, 4}
    assert not line_ok
    # rank-2 locus of Y1 Y4 - Y2 Y3 = 0 in P^3(F_3): (q+1)^2 points
    assert census[2] == 16
