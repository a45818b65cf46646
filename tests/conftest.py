"""Shared table builders for the test suite."""

from functools import reduce

import numpy as np

from pgc import (
    LinearFormMatrix,
    make_field,
    ModRing,
    LieRing,
    free_table,
    boston_isaacs_table,
    quadric_table,
    isaacs_cd_table,
    fm_table,
)


def heisenberg(ring):
    return LieRing(ring, 3, {(0, 1): {2: 1}}, "heisenberg")


def form_matrix(fs, rows, cols, nvars, coeffs):
    """The rows x cols LinearFormMatrix with entry (r, c) equal to
    sum_v coeffs[r][c][v] Var_v, coefficients given as field elements."""
    codes = np.array([[[fs.to_int(x) for x in entry] for entry in row]
                      for row in coeffs], dtype=np.int64)
    return LinearFormMatrix(fs, codes.reshape(rows, cols, nvars).transpose(2, 0, 1))


def skew_form(fs, size, nvars, coeff):
    """The size x size skew LinearFormMatrix whose entry (r, c), r < c, is
    sum_v coeff() Var_v and whose entry (c, r) is its negative; coeff gives
    a field element per call."""
    codes = np.zeros((nvars, size, size), dtype=np.int64)
    for r in range(size):
        for c in range(r + 1, size):
            for v in range(nvars):
                x = coeff()
                codes[v, r, c], codes[v, c, r] = fs.to_int(x), fs.to_int(fs.neg(x))
    return LinearFormMatrix(fs, codes, skew=True)


def field_pool():
    """Small field tables with class < p, one per shape we care about."""
    return [
        heisenberg(make_field(3)),
        heisenberg(make_field(5)),
        heisenberg(make_field(3, 2)),
        free_table(2, 3, make_field(5)),
        free_table(3, 2, make_field(3)),
        free_table(2, 4, make_field(5)),
        quadric_table(3),
        boston_isaacs_table(1, 5),
        boston_isaacs_table(3, 7),
        isaacs_cd_table([1, 2], 3),
        fm_table(2, 3, 5),
        fm_table(1, 2, 3),
    ]


def prime_field_pool():
    """The GF(p) members, usable by both the matrix and the dual route."""
    return [t for t in field_pool()
            if getattr(t.ring, "f", 0) == 1]


def dual_pool():
    """Every field_pool() member and three more GF(p^f) tables: the dual
    route takes |g/z| + |g'^| batched eliminations on the table over GF(p),
    cheap for all of them."""
    return field_pool() + [
        free_table(3, 2, make_field(3, 2)),
        free_table(2, 3, make_field(5, 2)),
        quadric_table(9),
    ]


def modular_pool():
    return [
        heisenberg(ModRing(3, 2)),
        heisenberg(ModRing(5, 1)),
        LieRing(ModRing(3, 2), 4,
                {(0, 1): {2: 1}, (0, 3): {2: 3}}, "fattened heisenberg Z/9"),
    ]


def change_basis(table, m, ops):
    """The table in the basis P e, with P the product of the elementary row
    operations (i, j, c), row i += c row j, over Z/m (GF(p) when m = p, the
    prime field of a GF(q) table)."""
    R, h = table.ring, table.h
    P = [[int(i == j) for j in range(h)] for i in range(h)]
    Pinv = [list(row) for row in P]  # tracked alongside P
    for i, j, c in ops:
        P[i] = [(x + c * y) % m for x, y in zip(P[i], P[j])]
        for row in Pinv:
            row[j] = (row[j] - c * row[i]) % m
    brackets = {}
    for i in range(h):
        for j in range(i + 1, h):
            # old coordinates; new = v Pinv
            v = table.bracket([R.embed(x) for x in P[i]], [R.embed(x) for x in P[j]])
            brackets[(i, j)] = {l: reduce(R.add, (R.mul(v[k], R.embed(Pinv[k][l]))
                                                  for k in range(h)))
                                for l in range(h)}
    return LieRing(table.ring, h, brackets)


def scaled_free_quotient(r, c, ring, shift, line):
    """f(r,c) over Z/p^e or GF(q) on the basis p^a(w) e_i, e_i of weight w
    and a(w) = shift[w - 1], modulo the line of the top layer spanned by
    `line`, ring elements with a unit coordinate j. Over GF(q), where p is
    0, the shift must be 0.

    lambda_ij^k becomes p^(a(w_i) + a(w_j) - a(w_k)) lambda_ij^k, so a must
    be subadditive; a c-fold bracket of generators gains p^(c a(1) - a(c)),
    so the class stays c while that is below e. The top layer is central,
    so the line is an ideal; the quotient keeps the other top coordinates
    t != j as x_t - (x_j / line_j) line_t."""
    p, zero = ring.p, ring.zero()
    free = free_table(r, c, ring)
    a = [shift[w] for w, layer in enumerate(free.hall.layers) for _ in layer]
    low = free.h - len(line)
    unit = ring.is_unit if isinstance(ring, ModRing) else (lambda x: not ring.is_zero(x))
    j = next(t for t, x in enumerate(line) if unit(x))
    inv = ring.inv(line[j])
    brackets = {}
    for (i1, i2), row in free.lam.items():
        row = {k: ring.mul(v, ring.embed(p ** (a[i1] + a[i2] - a[k]))) for k, v in row.items()}
        image = {k: v for k, v in row.items() if k < low}
        xj = ring.mul(row.get(low + j, zero), inv)
        for t, x in enumerate(line):
            if t != j:
                image[low + t - (t > j)] = ring.sub(row.get(low + t, zero), ring.mul(xj, x))
        brackets[(i1, i2)] = image
    return LieRing(ring, free.h - 1, brackets, f"f({r},{c})/{ring} scaled by {shift}")
