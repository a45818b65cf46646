"""Hausdorff series and brute-force group oracles.

The group exp(g) = (g, *) has the same underlying set as the Lie ring; the
product is the truncated Hausdorff series u*v = sum_{i<=c} F_i(u,v) with
exact rational coefficients, well defined whenever p > c. Everything here
is deliberately independent of the counting machinery. bch collects the
F_i on the Hall basis by the Dynkin-Specht-Wever lemma (freenil.collect);
_hausdorff and bch_matrix_sum evaluate Hall elements by _hall_values.
_hausdorff is the one group law on a table: the series reduced mod n on
(B, N) arrays of residue rows over restrict_scalars(table), with the
bracket read from the table's dense structure tensor, so one evaluation
multiplies B pairs of elements. star is its one-row case, and
centralizer_order scans G in blocks of rows.

By the orbit method both censuses are orbit counts of the one group
generated by the Ad_g on the additive group (Z/n)^N of the table over
GF(p) or Z/p^e; a GF(p^f) table is first taken over GF(p) by
liecore.restrict_scalars, which leaves the group as it is. Conjugacy
classes are the orbits of the Ad_g on g; characters are the orbits of
their transposes on the dual (orbit size p^{2i} <-> degree p^i). The g
need only run over generators of G modulo its Frattini subgroup Phi(G),
which corresponds to p g + g'. The law and the Ad_g are computed once per
table (per_table): two evaluations of the series give the rows of every
generator's Ad_g at once. Each Ad_g becomes one permutation of the
element indices, the orbits close by min-label propagation, and two
bincounts of the labels give the {orbit size: count} histogram.

Group elements are plain coordinate tuples over the table's ring.
"""

from __future__ import annotations

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

# The law runs over restrict_scalars(table), whose additive group is
# (Z/n)^N with n = p (a field table) or p^e (over Z/p^e). Its elements are
# the rows of (B, N) int64 arrays of residues, and one evaluation of the
# reduced series multiplies B pairs of rows at once. Every product of two
# residues is reduced mod n before it is summed.

@per_table
def _law(table):
    """(n, bracket, [(hall index, coefficient mod n)], Hall basis) of a
    table over GF(p) or Z/p^e, the coefficients those of bch(class) reduced
    mod n. bracket(U, V) gives the rows [U_b, V_b]; it reads the nonzero
    entries T[i, j, k] = lambda_ij^k of the dense (N, N, N) tensor of the
    table, so that coordinate k of a row sums the residues U_i V_j T[i, j, k]
    mod n over at most N^2 entries. A modulus whose residues overflow int64
    in a product, or in that sum, is a BudgetExceeded."""
    c = nilpotency_class(table)
    R, N = table.ring, table.h
    p = R.p
    if c >= p:
        raise ClassTooLarge(f"nilpotency class {c} >= p = {p}")
    n = R.q if is_field(R) else R.m
    if max(n - 1, N * N) * (n - 1) > np.iinfo(np.int64).max:
        raise BudgetExceeded(f"modulus {n} overflows int64 in the group law")
    series = bch(c)
    reduced = []
    for deg in range(1, c + 1):
        for idx, fr in series.terms.get(deg, {}).items():
            if fr.denominator % p == 0:
                raise DenominatorNotInvertible(f"{fr} at degree {deg}, p = {p}")
            coeff = fr.numerator * pow(fr.denominator, -1, n) % n
            if coeff:
                reduced.append((idx, coeff))
    T = np.zeros((N, N, N), dtype=np.int64)
    for (i, j), row in table.lam.items():
        for k, x in row.items():
            T[i, j, k], T[j, i, k] = x, -x % n
    i, j, k = np.nonzero(T)
    lam, onto = T[i, j, k], np.eye(N, dtype=np.int64)[k]

    def bracket(U, V):
        return (U[:, i] * V[:, j] % n * lam % n) @ onto % n

    return n, bracket, reduced, series.basis


def _hausdorff(law, X, Y):
    """The rows of X * Y: the reduced series at (X, Y), each Hall element
    evaluated once on all B rows."""
    n, bracket, reduced, basis = law
    ev = _hall_values(basis, X, Y, bracket)
    out = np.zeros(np.broadcast_shapes(X.shape, Y.shape), dtype=np.int64)
    for idx, coeff in reduced:
        out += ev(idx) * coeff % n
        out %= n
    return out


def star(x, y, table):
    """The group product in Lie-ring coordinates: one row of _hausdorff. A
    GF(p^f) element's digit s of coordinate i is index i f + s of the row
    over restrict_scalars(table)."""
    law = _law(restrict_scalars(table))
    X, Y = np.array([x, y], dtype=np.int64).reshape(2, 1, -1) % law[0]
    row = _hausdorff(law, X, Y)[0]
    R = table.ring
    if is_field(R) and R.f > 1:
        return tuple(map(tuple, row.reshape(table.h, R.f).tolist()))
    return tuple(row.tolist())


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


def _ad_rows(table, gens):
    """Row matrices of Ad_g = exp(ad_g) for the g in gens, over GF(p) or
    Z/p^e: row l of g's is (g * e_l) * g^{-1}. The d N rows of all d
    generators take two evaluations of the series."""
    law = _law(table)
    n, N = law[0], table.h
    d = len(gens)
    G = np.repeat(np.array(gens, dtype=np.int64).reshape(d, N), N, axis=0)
    E = np.tile(np.eye(N, dtype=np.int64), (d, 1))
    return _hausdorff(law, _hausdorff(law, G, E), -G % n).reshape(d, N, N)


@per_table
def _ads(table):
    """Read-only Ad_g over Z/n for each g in _generators(table), all from
    one _ad_rows call."""
    mats = [np.array(A, dtype=np.int64) for A in _ad_rows(table, _generators(table))]
    for A in mats:
        A.setflags(write=False)
    return mats


@lru_cache(maxsize=16)
def _digits(n, k):
    """Read-only (n^k, k) table whose row x holds the base-n digits of x."""
    digits = (np.arange(n**k, dtype=np.int64)[:, None]
              // n ** np.arange(k, dtype=np.int64) % n)
    digits.setflags(write=False)
    return digits


def _permutation(A, n, N):
    """The index permutation of x -> x A on (Z/n)^N, x coded as the
    mixed-radix index sum_l x_l n^l. The digits split into a low and a high
    half; the images of every low and every high digit vector come from two
    small matmuls with the digit tables of _digits, and an element's image
    is the digit-wise sum of its two halves' images less n where it reaches
    n, in the least unsigned dtype that holds 2n - 2. The index is
    assembled digit by digit in the least unsigned dtype that holds both
    that and n^N - 1. Work runs over blocks of high halves, so memory stays
    at a few arrays of group order."""
    lo = N - N // 2
    dt = np.min_scalar_type(2 * n - 2)
    ct = np.promote_types(dt, np.min_scalar_type(n**N - 1))

    def images(block):
        """Row l: digit l of the image of each digit vector of the block."""
        return np.ascontiguousarray((_digits(n, len(block)) @ block % n).T, dtype=dt)

    low, high = images(A[:lo]), images(A[lo:])
    size = low.shape[1]
    perm = np.empty(n**N, dtype=np.int64)
    step = max(1, _CHUNK // size)
    for start in range(0, high.shape[1], step):
        x = high[:, start:start + step, None] + low[:, None, :]
        x = np.minimum(x, x - n)
        code = x[N - 1].astype(ct)
        for l in range(N - 2, -1, -1):
            code *= n
            code += x[l]
        perm[start * size:start * size + code.size] = code.ravel()
    return perm


def _orbit_sizes(table, budget, transpose):
    """{orbit size: #orbits} of the group generated by the Ad_g (their
    transposes when `transpose`) on (Z/n)^N, the additive group of
    restrict_scalars(table), for g running over generators of G modulo its
    Frattini subgroup (_generators). Each generator becomes one
    permutation P of the indices. Labels, in the least unsigned dtype that
    holds every index, fall to the least index of their orbit under
    label = min(label, label[P]), and each round squares
    every P, so one round covers twice the stretch of a cycle. Ad_g has
    p-power order, odd unless Ad_g = 1 (p = 2 forces class 1), so P^2
    generates the same cyclic group as P, and P^{-1} is a power of P: at
    the fixed point the labels are constant on the orbits. The histogram
    is counted: one bincount of the labels gives each orbit's size at its
    least index, a second counts the orbits of each size."""
    table = restrict_scalars(table)
    R, N = table.ring, table.h
    n = R.q if is_field(R) else R.m
    order = n**N
    if order > budget:
        what = "|dual|" if transpose else "|G|"
        raise BudgetExceeded(f"{what} = {order} exceeds oracle budget {budget}")
    perms = [_permutation(A.T if transpose else A, n, N)
             for A in _ads(table)]
    label = np.arange(order, dtype=np.min_scalar_type(order - 1))
    while True:
        new = label
        for P in perms:
            new = np.minimum(new, new[P])
        if np.array_equal(new, label):
            break
        label = new
        for P in perms:
            P[:] = P[P]
    count = np.bincount(np.bincount(label))
    sizes = np.flatnonzero(count[1:]) + 1
    return dict(zip(sizes.tolist(), count[sizes].tolist()))


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
    """|C_G(x)| by direct scan: g commutes with x iff g*x = x*g. The g run
    in blocks of index ranges, each block one pair of array evaluations."""
    flat = restrict_scalars(table)
    law = _law(flat)
    n, N = law[0], flat.h
    x = np.array(x, dtype=np.int64).reshape(1, N) % n
    radix = np.array([n**l for l in range(N)], dtype=np.int64)
    step = max(1, _CHUNK // N**3)
    count = 0
    for start in range(0, n**N, step):
        g = np.arange(start, min(start + step, n**N), dtype=np.int64)[:, None] // radix % n
        count += int(np.all(_hausdorff(law, g, x) == _hausdorff(law, x, g), axis=1).sum())
    return count
