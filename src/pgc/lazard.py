"""Hausdorff series and brute-force group oracles.

The group exp(g) = (g, *) has the same underlying set as the Lie ring; the
product is the truncated Hausdorff series u*v = sum_{i<=c} F_i(u,v) with
exact rational coefficients, well defined whenever p > c. Everything here
is deliberately independent of the counting machinery. bch collects the
F_i on the Hall basis by the Dynkin-Specht-Wever lemma (freenil.collect);
star and bch_matrix_sum evaluate Hall elements by _hall_values. By the
orbit method both censuses are orbit counts of the one group generated by
the Ad_g on the additive group (Z/n)^N of the table over GF(p) or Z/p^e;
a GF(p^f) table is first taken over GF(p) by liecore.restrict_scalars,
which leaves the group as it is. Conjugacy classes are the orbits of the
Ad_g on g; characters are the orbits of their transposes on the dual
(orbit size p^{2i} <-> degree p^i). The g need only run over
generators of G modulo its Frattini subgroup Phi(G), which corresponds to
p g + g'. The reduced series and the Ad_g are computed once per table
(per_table), each Ad_g becomes one permutation of the element indices, and
the orbits close by min-label propagation.

Group elements are plain coordinate tuples over the table's ring.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .liecore import is_field, nilpotency_class, per_table, restrict_scalars
from .commat import BudgetExceeded
from .enumctr import ClassTooLarge, CountVector
from .freenil import collect, hall_basis

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
    Lie algebra: F_1 = X + Y, F_2 = [X,Y]/2, ... By the Dynkin-Specht-Wever
    lemma a Lie element of degree n is 1/n times the sum of the left-normed
    brackets [...[w_1, w_2], ..., w_n] of its words w, so each word of
    log(exp X exp Y) is put on the Hall basis by collecting one letter at a
    time. Keys ascend within each degree. All prime factors of the
    denominators in degree i are <= i."""
    if c < 1:
        raise ValueError("truncation class must be >= 1")
    basis = hall_basis(2, c)
    acc = {deg: {} for deg in range(1, c + 1)}
    for w, coeff in _assoc_log_exp_exp(c).items():
        u = {w[0]: 1}
        for letter in w[1:]:
            nxt = {}
            for k, ck in u.items():
                for z, cz in collect(k, letter, basis).items():
                    nxt[z] = nxt.get(z, 0) + ck * cz
            u = nxt
        layer = acc[len(w)]
        for z, n in u.items():
            layer[z] = layer.get(z, 0) + coeff * n / len(w)
    terms = {deg: {z: layer[z] for z in sorted(layer) if layer[z]}
             for deg, layer in acc.items()}
    return BchSeries(c, basis, terms)


def _hall_values(basis, x, y, bracket):
    """ev(idx): the Hall element idx of f_{2,c} at X = x, Y = y, with
    `bracket` as the Lie bracket; each element is computed once, from the
    values of its parents."""
    memo = {1: x, 0: y}

    def ev(idx):
        v = memo.get(idx)
        if v is None:
            l, r = basis.elements[idx].parents
            v = memo[idx] = bracket(ev(l), ev(r))
        return v

    return ev


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
    ev = _hall_values(series.basis, M, N,
                      lambda A, B: _mat_add(_mat_mul(A, B), _mat_mul(B, A), -1))
    out = [[Fraction(0)] * n for _ in range(n)]
    for deg in range(1, series.c + 1):
        for idx, coeff in series.terms[deg].items():
            out = _mat_add(out, [[coeff * v for v in row] for row in ev(idx)])
    return out


# ---------------------------------------------------------------------------
# the group law on a table


@per_table
def _prepare(table):
    """([(hall index, ring coefficient)], Hall basis) of bch(class), with
    coefficients reduced into the table's ring."""
    c = nilpotency_class(table)
    p = table.ring.p
    if c >= p:
        raise ClassTooLarge(f"nilpotency class {c} >= p = {p}")
    series = bch(c)
    R = table.ring
    reduced = []
    for deg in range(1, c + 1):
        for idx, fr in series.terms.get(deg, {}).items():
            if fr.denominator % p == 0:
                raise DenominatorNotInvertible(f"{fr} at degree {deg}, p = {p}")
            coeff = R.mul(R.embed(fr.numerator), R.inv(R.embed(fr.denominator)))
            if not R.is_zero(coeff):
                reduced.append((idx, coeff))
    return reduced, series.basis


def star(x, y, table):
    """The group product in Lie-ring coordinates."""
    reduced, basis = _prepare(table)
    R, h = table.ring, table.h
    ev = _hall_values(basis, tuple(x), tuple(y), table.bracket)
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

# The additive group of restrict_scalars(table) is (Z/n)^N, n = p (a field
# table) or p^e (over Z/p^e), N its rank. An element, and a character
# through the dot-product pairing, is a residue tuple, coded as the
# mixed-radix index sum_l d_l n^l. Conjugation by g is the linear map Ad_g;
# g acts on characters by the transpose of Ad_g^{-1}.

_CHUNK = 1 << 16


def _pivot_columns(rows, p):
    """Pivot columns of an echelon form of `rows` over F_p, left to right;
    the unit vectors at the other columns span a complement of their row
    space."""
    rows = [[a % p for a in r] for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = pow(piv[col], -1, p)
        rows = [[(a - r[col] * inv * b) % p for a, b in zip(r, piv)]
                if r[col] else r for r in rows]
        pivots.append(col)
    return pivots


def _generators(table):
    """Generators of (g, *) modulo its Frattini subgroup, over GF(p) or
    Z/p^e: the basis vectors at the non-pivot columns of an F_p echelon of
    the [e_i, e_j] mod p, which span (g' + p g)/p g in g/p g. For p > c
    the Lazard correspondence makes the normal subgroups N the ideals I on
    the same set, and G/N is elementary abelian exactly when g/I is abelian
    with p (g/I) = 0 (x^p = p x), that is when I contains g' + p g; so
    Phi(G) = G^p G', the least such N, is g' + p g. The chosen vectors span
    a complement of (g' + p g)/p g, so they generate G by the Burnside
    basis theorem; Ad is a homomorphism, so their Ad_g generate Ad(G), and
    the transposes generate the transposed group."""
    h = table.h
    rows = [[row.get(k, 0) for k in range(h)] for row in table.lam.values()]
    pivots = set(_pivot_columns(rows, table.ring.p))
    return [table.basis_vector(l) for l in range(h) if l not in pivots]


def _ad_rows(table, g):
    """Row matrix of Ad_g = exp(ad_g): row l is g * e_l * g^{-1}."""
    ginv = star_inverse(g, table)
    return [star(star(g, table.basis_vector(l), table), ginv, table)
            for l in range(table.h)]


@per_table
def _ads(table):
    """Read-only Ad_g over Z/n for each g in _generators(table)."""
    mats = [np.array(_ad_rows(table, g), dtype=np.int64) for g in _generators(table)]
    for A in mats:
        A.setflags(write=False)
    return mats


def _permutation(A, n, N):
    """The index permutation of x -> x A on (Z/n)^N, x coded as the
    mixed-radix index sum_l x_l n^l. The digits split into a low and a high
    half; the images of every low and every high digit vector come from two
    small matmuls, and an element's image is the digit-wise sum of its two
    halves' images less n where it reaches n, in the least unsigned dtype
    that holds 2n - 2. Work runs over blocks of high halves, so memory stays
    at a few arrays of group order."""
    lo = N - N // 2
    dt = np.min_scalar_type(2 * n - 2)

    def images(block):
        """Row l: digit l of the image of each digit vector of the block."""
        k = len(block)
        digits = (np.arange(n**k, dtype=np.int64)[:, None]
                  // n ** np.arange(k, dtype=np.int64) % n)
        return np.ascontiguousarray((digits @ block % n).T, dtype=dt)

    low, high = images(A[:lo]), images(A[lo:])
    size = low.shape[1]
    perm = np.empty(n**N, dtype=np.int64)
    step = max(1, _CHUNK // size)
    for start in range(0, high.shape[1], step):
        x = high[:, start:start + step, None] + low[:, None, :]
        x = np.minimum(x, x - n)
        code = perm[start * size:start * size + x[0].size].reshape(x.shape[1:])
        code[...] = x[N - 1]
        for l in range(N - 2, -1, -1):
            code *= n
            code += x[l]
    return perm


def _orbit_sizes(table, budget, transpose):
    """{orbit size: #orbits} of the group generated by the Ad_g (their
    transposes when `transpose`) on (Z/n)^N, the additive group of
    restrict_scalars(table), for g running over generators of G modulo its
    Frattini subgroup (_generators). Each generator becomes one
    permutation P of the indices. Labels fall to the least index of
    their orbit under label = min(label, label[P]), and each round squares
    every P, so one round covers twice the stretch of a cycle. Ad_g has
    p-power order, odd unless Ad_g = 1 (p = 2 forces class 1), so P^2
    generates the same cyclic group as P, and P^{-1} is a power of P: at
    the fixed point the labels are constant on the orbits."""
    table = restrict_scalars(table)
    R, N = table.ring, table.h
    n = R.q if is_field(R) else R.m
    order = n**N
    if order > budget:
        what = "|dual|" if transpose else "|G|"
        raise BudgetExceeded(f"{what} = {order} exceeds oracle budget {budget}")
    perms = [_permutation(A.T if transpose else A, n, N)
             for A in _ads(table)]
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


def conjugacy_census(table, budget=DEFAULT_ORACLE_BUDGET):
    """cc from the conjugation orbits on the full element set. Conjugation
    by a fixed g is the linear map Ad_g; generator closure suffices because
    Ad_g has p-power order."""
    R = table.ring
    cc = {}
    for size, count in _orbit_sizes(table, budget, False).items():
        i = _p_power_exponent(size, R.p)
        if i is None:
            raise NonPowerClass(f"class size {size}")
        cc[i] = count
    return CountVector(cc, p=R.p)


def coadjoint_census(table, budget=DEFAULT_ORACLE_BUDGET):
    """ch from the co-adjoint orbits: g sends omega to omega o Ad_g^{-1},
    and the Ad_g^{-1} generate the same group as the Ad_g; an orbit of size
    p^{2i} contributes one character of degree p^i."""
    R = table.ring
    ch = {}
    for size, count in _orbit_sizes(table, budget, True).items():
        i = _p_power_exponent(size, R.p)
        if i is None or i % 2:
            raise NonSquareOrbit(f"orbit size {size}")
        ch[i // 2] = count
    return CountVector(ch, p=R.p)


def centralizer_order(table, x):
    """|C_G(x)| by direct scan: g commutes with x iff g*x = x*g."""
    R, h = table.ring, table.h
    count = 0
    for g in itertools.product(R.elements(), repeat=h):
        if star(g, x, table) == star(x, g, table):
            count += 1
    return count
