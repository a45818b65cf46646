"""Hausdorff series and brute-force group oracles.

The group exp(g) = (g, *) has the same underlying set as the Lie ring; the
product is the truncated Hausdorff series u*v = sum_{i<=c} F_i(u,v) with
exact rational coefficients, well defined whenever p > c. Everything here
is deliberately independent of the counting machinery: by the orbit method
both censuses are orbit counts of the one group generated by the Ad_g on
the flat additive group (Z/n)^N. Conjugacy classes are the orbits of the
Ad_g on g; characters are the orbits of their transposes on the dual
(orbit size q^{2i} <-> degree q^i). Each generator becomes one permutation
of the element indices, and the orbits close by min-label propagation.

Group elements are plain coordinate tuples over the table's ring.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .liecore import ModRing, is_field, nilpotency_class
from .commat import BudgetExceeded
from .enumctr import ClassTooLarge, CountVector
from .freenil import hall_basis

DEFAULT_ORACLE_BUDGET = 10**6


class DenominatorNotInvertible(ArithmeticError):
    """A series denominator shares a factor with p: cannot happen for p > c."""


class NonPowerClass(RuntimeError):
    """A conjugacy class size is not a power of p."""


class NonSquareOrbit(RuntimeError):
    """A co-adjoint orbit size is not an even power of p."""


# ---------------------------------------------------------------------------
# the Hausdorff series, exactly

# Free associative words are tuples over the generator indices of the
# two-generator Hall basis: letter 1 = X (first factor), letter 0 = Y.


def _word_mul(u, v, cap):
    out = {}
    for wu, cu in u.items():
        for wv, cv in v.items():
            if len(wu) + len(wv) > cap:
                continue
            w = wu + wv
            out[w] = out.get(w, 0) + cu * cv
    return {w: c for w, c in out.items() if c}


def _assoc_log_exp_exp(c):
    """log(exp X exp Y) in the free associative algebra, through degree c."""
    P = {}
    for i in range(c + 1):
        for j in range(c + 1 - i):
            if i + j == 0:
                continue
            P[(1,) * i + (0,) * j] = Fraction(1, factorial(i) * factorial(j))
    H, Pm = {}, None
    for m in range(1, c + 1):
        Pm = P if m == 1 else _word_mul(Pm, P, c)
        s = Fraction((-1) ** (m + 1), m)
        for w, coeff in Pm.items():
            H[w] = H.get(w, Fraction(0)) + s * coeff
    return {w: v for w, v in H.items() if v}


def _assoc_expand(idx, basis, memo):
    """Integer word expansion of a basic commutator ([u,v] -> uv - vu)."""
    if idx in memo:
        return memo[idx]
    el = basis.elements[idx]
    if el.parents is None:
        res = {(idx,): 1}
    else:
        L = _assoc_expand(el.parents[0], basis, memo)
        R = _assoc_expand(el.parents[1], basis, memo)
        res = {}
        for wl, cl in L.items():
            for wr, cr in R.items():
                res[wl + wr] = res.get(wl + wr, 0) + cl * cr
                res[wr + wl] = res.get(wr + wl, 0) - cl * cr
        res = {w: c for w, c in res.items() if c}
    memo[idx] = res
    return res


def _solve_exact(rows, rhs):
    """Solve rows^T t = rhs over Fraction; rows[j] is column j. The system
    must be consistent with a unique solution (Hall elements of one weight
    are linearly independent)."""
    ncols = len(rows)
    aug = [[Fraction(rows[j][i]) for j in range(ncols)] + [Fraction(rhs[i])]
           for i in range(len(rhs))]
    piv_rows = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if piv is None:
            raise AssertionError("dependent Hall expansion")
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_rows.append(col)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][-1]:
            raise AssertionError("Hausdorff part is not a Lie element")
    return [aug[i][-1] for i in range(ncols)]


class BchSeries:
    """terms[i] = {hall index in f_{2,c}: Fraction} for each degree i <= c."""

    def __init__(self, c, basis, terms):
        self.c = c
        self.basis = basis
        self.terms = terms

    def __repr__(self):
        return f"BchSeries(c={self.c})"


@lru_cache(maxsize=None)
def bch(c):
    """Hausdorff terms F_1..F_c on the Hall basis of the free two-generator
    Lie algebra: F_1 = X + Y, F_2 = [X,Y]/2, ... All prime factors of the
    denominators in degree i are <= i."""
    if c < 1:
        raise ValueError("truncation class must be >= 1")
    basis = hall_basis(2, c)
    H = _assoc_log_exp_exp(c)
    memo = {}
    terms = {}
    for deg in range(1, c + 1):
        layer = basis.layers[deg - 1]
        words = sorted({w for w in H if len(w) == deg}
                       | {w for el in layer
                          for w in _assoc_expand(el.index, basis, memo)})
        wpos = {w: i for i, w in enumerate(words)}
        cols = []
        for el in layer:
            colv = [0] * len(words)
            for w, n in _assoc_expand(el.index, basis, memo).items():
                colv[wpos[w]] = n
            cols.append(colv)
        rhs = [H.get(w, Fraction(0)) for w in words]
        sol = _solve_exact(cols, rhs)
        terms[deg] = {el.index: t for el, t in zip(layer, sol) if t}
    return BchSeries(c, basis, terms)


# ---------------------------------------------------------------------------
# nilpotent-matrix ground truth for the series

# Strictly upper-triangular matrices over Fraction: exp and log terminate,
# so exp(M) exp(N) = exp(sum_i F_i(M,N)) is an exact, library-free check.


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _mat_add(A, B, s=1):
    return [[a + s * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _mat_eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matrix_exp(M):
    """Terminating exponential series of a nilpotent matrix."""
    n = len(M)
    out, term = _mat_eye(n), _mat_eye(n)
    for k in range(1, n):
        term = _mat_mul(term, M)
        out = _mat_add(out, [[v / factorial(k) for v in row] for row in term])
    return out


def matrix_log(U):
    """Terminating logarithm of a unipotent matrix."""
    n = len(U)
    L = _mat_add(U, _mat_eye(n), -1)
    out = [[Fraction(0)] * n for _ in range(n)]
    term = _mat_eye(n)
    for k in range(1, n):
        term = _mat_mul(term, L)
        out = _mat_add(out, [[v * Fraction((-1) ** (k + 1), k) for v in row]
                             for row in term])
    return out


def bch_matrix_sum(series, M, N):
    """sum_i F_i(M, N) with brackets as matrix commutators."""
    n = len(M)
    memo = {1: M, 0: N}

    def ev(idx):
        if idx in memo:
            return memo[idx]
        l, r = series.basis.elements[idx].parents
        A, B = ev(l), ev(r)
        memo[idx] = _mat_add(_mat_mul(A, B), _mat_mul(B, A), -1)
        return memo[idx]

    out = [[Fraction(0)] * n for _ in range(n)]
    for deg in range(1, series.c + 1):
        for idx, coeff in series.terms[deg].items():
            out = _mat_add(out, [[coeff * v for v in row] for row in ev(idx)])
    return out


# ---------------------------------------------------------------------------
# the group law on a table


def _prepare(table, series=None):
    """(class, [(hall index, ring coefficient)], basis) with coefficients
    reduced into the table's ring; cached on the table."""
    cached = table.__dict__.get("_star_prep")
    if cached is not None and (series is None or series is cached[3]):
        return cached[:3]
    c = table.__dict__.get("_nilclass")
    if c is None:
        c = nilpotency_class(table)
        table._nilclass = c
    p = table.ring.p
    if c >= p:
        raise ClassTooLarge(f"nilpotency class {c} >= p = {p}")
    if series is None:
        series = bch(c)
    if series.c < c:
        raise ValueError(f"series truncated at {series.c} < class {c}")
    R = table.ring
    reduced = []
    for deg in range(1, c + 1):
        for idx, fr in series.terms.get(deg, {}).items():
            if fr.denominator % p == 0:
                raise DenominatorNotInvertible(f"{fr} at degree {deg}, p = {p}")
            coeff = R.mul(R.embed(fr.numerator), R.inv(R.embed(fr.denominator)))
            if not R.is_zero(coeff):
                reduced.append((idx, coeff))
    table._star_prep = (c, reduced, series.basis, series)
    return c, reduced, series.basis


def star(x, y, table, series=None):
    """The group product in Lie-ring coordinates."""
    _, reduced, basis = _prepare(table, series)
    R, h = table.ring, table.h
    memo = {1: tuple(x), 0: tuple(y)}

    def ev(idx):
        v = memo.get(idx)
        if v is None:
            l, r = basis.elements[idx].parents
            v = table.bracket(ev(l), ev(r))
            memo[idx] = v
        return v

    acc = [R.zero()] * h
    for idx, coeff in reduced:
        vec = ev(idx)
        for t in range(h):
            if not R.is_zero(vec[t]):
                acc[t] = R.add(acc[t], R.mul(coeff, vec[t]))
    return tuple(acc)


def star_inverse(x, table):
    """Group inverse = -x: every F_i(x, -x) with i >= 2 vanishes."""
    R = table.ring
    return tuple(R.neg(t) for t in x)


# ---------------------------------------------------------------------------
# censuses

# The additive group of the table is (Z/n)^N after flattening: n = p^e for
# modular rings (N = h), n = p for fields (N = h f, basis t^s e_i). An
# element, and a character through the dot-product pairing, is a residue
# tuple, coded as the mixed-radix index sum_l d_l n^l. Conjugation by g is
# the linear map Ad_g; g acts on characters by the transpose of Ad_g^{-1}.

_CHUNK = 1 << 16


def _flat_model(table):
    R, h = table.ring, table.h
    if isinstance(R, ModRing):
        return R.m, h, None
    if R.f == 1:
        return R.p, h, None
    return R.p, h * R.f, R.f


def _generators(table):
    """Coordinate generators of (g, *): the basis vectors, plus their
    subfield-scalar multiples when f > 1 (star powers only reach the
    prime-subfield span of a vector)."""
    R, h = table.ring, table.h
    gens = [table.basis_vector(i) for i in range(h)]
    if is_field(R) and R.f > 1:
        for s in range(1, R.f):
            t_s = R.from_int(R.p**s)
            for i in range(h):
                gens.append(tuple(R.mul(t_s, c) for c in table.basis_vector(i)))
    return gens


def _ad_rows(table, g, series=None):
    """Row matrix of Ad_g = exp(ad_g): row l is g * e_l * g^{-1}."""
    ginv = star_inverse(g, table)
    return [star(star(g, table.basis_vector(l), table, series), ginv, table,
                 series)
            for l in range(table.h)]


def _flat_matrix(table, rows, f):
    """Ad_g over Z/n on the flat model. When f > 1, flat basis vector
    l = i f + s is t^s e_i, and Ad_g is GF(q)-linear, so its row is t^s
    times row i, split into base-p digits."""
    if f is None:
        return np.array(rows, dtype=np.int64)
    R = table.ring
    scalars = [R.from_int(R.p**s) for s in range(f)]
    return np.array([[d for c in row for d in R.mul(t, c)]
                     for row in rows for t in scalars], dtype=np.int64)


def _orbit_sizes(table, budget, transpose, series=None):
    """{orbit size: #orbits} of the group generated by the Ad_g (their
    transposes when `transpose`) on (Z/n)^N. Each generator becomes one
    permutation P of the indices. Labels fall to the least index of their
    orbit under label = min(label, label[P]), and each round squares every
    P, so one round covers twice the stretch of a cycle. Ad_g has p-power
    order, odd unless Ad_g = 1 (p = 2 forces class 1), so P^2 generates
    the same cyclic group as P, and P^{-1} is a power of P: at the fixed
    point the labels are constant on the orbits."""
    n, N, f = _flat_model(table)
    order = n**N
    if order > budget:
        what = "|dual|" if transpose else "|G|"
        raise BudgetExceeded(f"{what} = {order} exceeds oracle budget {budget}")
    mats = [_flat_matrix(table, _ad_rows(table, g, series), f)
            for g in _generators(table)]
    if transpose:
        mats = [A.T for A in mats]
    radix = n ** np.arange(N, dtype=np.int64)
    perms = np.empty((len(mats), order), dtype=np.int64)
    for start in range(0, order, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, order), dtype=np.int64)
        digits = idx[:, None] // radix % n
        for P, A in zip(perms, mats):
            P[start:start + len(idx)] = digits @ A % n @ radix
    label = np.arange(order, dtype=np.int64)
    while True:
        new = label
        for P in perms:
            new = np.minimum(new, new[P])
        if np.array_equal(new, label):
            break
        label = new
        for P in perms:
            P[:] = P[P]
    sizes, count = np.unique(np.unique(label, return_counts=True)[1],
                             return_counts=True)
    return dict(zip(sizes.tolist(), count.tolist()))


def _p_power_exponent(n, p):
    i = 0
    while n % p == 0:
        n //= p
        i += 1
    return i if n == 1 else None


def conjugacy_census(table, budget=DEFAULT_ORACLE_BUDGET, series=None):
    """cc from the conjugation orbits on the full element set. Conjugation
    by a fixed g is the linear map Ad_g; generator closure suffices because
    Ad_g has p-power order."""
    R = table.ring
    cc = {}
    for size, count in _orbit_sizes(table, budget, False, series).items():
        i = _p_power_exponent(size, R.p)
        if i is None:
            raise NonPowerClass(f"class size {size}")
        cc[i] = count
    return CountVector(cc, q=R.q if is_field(R) else 1, p=R.p)


def coadjoint_census(table, budget=DEFAULT_ORACLE_BUDGET, series=None):
    """ch from the co-adjoint orbits: g sends omega to omega o Ad_g^{-1},
    and the Ad_g^{-1} generate the same group as the Ad_g; an orbit of size
    p^{2i} contributes one character of degree p^i."""
    R = table.ring
    ch = {}
    for size, count in _orbit_sizes(table, budget, True, series).items():
        i = _p_power_exponent(size, R.p)
        if i is None or i % 2:
            raise NonSquareOrbit(f"orbit size {size}")
        ch[i // 2] = count
    return CountVector(ch, q=R.q if is_field(R) else 1, p=R.p)


def centralizer_order(table, x, series=None):
    """|C_G(x)| by direct scan: g commutes with x iff g*x = x*g."""
    R, h = table.ring, table.h
    count = 0
    for g in itertools.product(R.elements(), repeat=h):
        if star(g, x, table, series) == star(x, g, table, series):
            count += 1
    return count
