"""Counting core: rank distributions, class/character vectors, class numbers.

Two routes to the same answers:
  * field route: enumerate F_q^a and F_q^b, read off rank distributions of
    the commutator matrices, scale by |Z| resp. |G/G'|;
  * dual route (every table, a field one over GF(p) by restrict_scalars):
    Theorem A as a matrix method. |im ad_x| over coset representatives x
    of g/z and |im B_omega| over the characters omega of g' are lengths of
    matrices linear in x resp. omega, so constant on the orbits of the
    units; the echelon walk of the rank censuses ranks one point per
    orbit. No complex numbers: a character is a residue vector w and
    omega([u, v]) is the residue of w . [u, v].
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, gcd, prod

import numpy as np

from .field import prime_power
from .liecore import (
    centre,
    derived,
    is_field,
    lower_central_series,
    restrict_scalars,
    smith_mod,
)
from .commat import (
    BudgetExceeded,
    LinearFormMatrix,
    build_commutator_matrices,
    check_modulus,
    check_points,
    echelon_bases,
    radix,
    stacked_ranks,
    structure_tensor,
)

DEFAULT_BUDGET = 10**9  # matrices one route's censuses may rank (see _price)
_CHUNK = 1 << 15


class ClassTooLarge(ValueError):
    pass


class InexactDivision(RuntimeError):
    """A Theorem-derived division failed to be exact: internal bug."""


class DuplicateNode(ValueError):
    pass


class NonIntegralCoefficient(ValueError):
    pass


class CountVector:
    """Map exponent -> count; p, when given, is the prime the exponents
    refer to (see mass)."""

    def __init__(self, entries, p=None):
        self.entries = {int(i): int(n) for i, n in entries.items() if n}
        self.p = p

    def __getitem__(self, i):
        return self.entries.get(i, 0)

    def __eq__(self, other):
        if isinstance(other, CountVector):
            return self.entries == other.entries
        return self.entries == {i: n for i, n in dict(other).items() if n}

    def total(self):
        return sum(self.entries.values())

    def mass(self, weight=1):
        """sum counts * p^(weight * exponent); needs p."""
        if self.p is None:
            raise ValueError("mass needs the prime p of the vector")
        return sum(n * self.p ** (weight * i) for i, n in self.entries.items())

    def items(self):
        return sorted(self.entries.items())

    def __iter__(self):
        return iter(sorted(self.entries))

    def __repr__(self):
        body = ", ".join(f"{i}: {n}" for i, n in self.items())
        return "CountVector({" + body + "})"


def _exact_div(n, d):
    q, r = divmod(n, d)
    if r:
        raise InexactDivision(f"{n} not divisible by {d}")
    return q


def rekey_q_to_p(entries, q):
    """Entries keyed by exponents of q = p^f as a CountVector keyed by
    exponents of p: entry i becomes entry f i."""
    p, f = prime_power(q)
    return CountVector({f * i: n for i, n in entries.items()}, p=p)


def count_vectors(class_sizes, char_sizes, zorder, abelian_order, p):
    """(cc, ch) keyed by exponents of p by Theorems A and B, from
    class_sizes[l] = #{x in g/z : |im ad_x| = p^l} and char_sizes[l] =
    #{omega in g'^ : |im B_omega| = p^l}: cc_l = class_sizes[l] |z| p^-l,
    ch_{l/2} = char_sizes[l] |G/G'| p^-l. InexactDivision if an l of
    char_sizes is odd, a division is inexact or the totals differ."""
    cc = CountVector({l: _exact_div(n * zorder, p**l)
                      for l, n in class_sizes.items() if n}, p=p)
    odd = [l for l, n in char_sizes.items() if n and l % 2]
    if odd:
        raise InexactDivision(f"radical index {p**odd[0]} is not an even p-power")
    ch = CountVector({l // 2: _exact_div(n * abelian_order, p**l)
                      for l, n in char_sizes.items() if n}, p=p)
    if cc.total() != ch.total():
        raise InexactDivision("class and character totals disagree")
    return cc, ch


# ---------------------------------------------------------------------------
# rank distributions over F_q^n


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _walk(M, codes, exps, levels, workers):
    """counts[i, l] = #{W : dim W = levels[i], M_W has rank l} over the walk
    of sum_c Z/r^exps[c] ((r, e) = radix(M.fs); see echelon_bases), M_W the
    stacks of codes (n, R, C) (see stacked_ranks), l a row-span length over
    Z/p^e. A level-1 generator of order r^s counts r^(s-1), so level 1
    counts #{x != 0 : M_x has length l} / (r - 1). Each level's boxes are
    cut into blocks of _step bases; a block may join the ends of several
    boxes, and only a level's last block is shorter (_price counts them).
    A block's stacks are odometer sums built straight in the elimination's
    layout (see build_stacks); no basis is written out. With workers > 1
    the blocks go round robin to a thread pool (numpy releases the GIL),
    each thread building only its own; the pool has at most one thread per
    usable CPU and per block. The counts do not depend on workers."""
    ring = M.fs
    r, e = radix(ring)
    n, R, C = codes.shape
    width = e * n + 1

    def blocks():
        for i, k in enumerate(levels):
            step = _step(_CHUNK, M.rows * M.cols, k, R, n)
            block, room = [], step
            for box, start, stop in echelon_bases(ring, exps, k, step):
                while start < stop:
                    end = min(stop, start + room)
                    block.append((box, start, end))
                    start, room = end, room - (end - start)
                    if not room:
                        yield i, block
                        block, room = [], step
            if block:
                yield i, block

    def shard(worker, workers):
        counts = np.zeros((len(levels), width), dtype=np.int64)
        for i, block in islice(blocks(), worker, None, workers):
            ranks, at = stacked_ranks(ring, codes, exps, block), 0
            for (s, _), start, stop in block:
                part, at = ranks[at : at + stop - start], at + stop - start
                counts[i] += np.bincount(part, minlength=width) * r ** (s - 1)
        return counts

    if workers > 1:
        workers = min(workers, _usable_cpus(), sum(1 for _ in blocks()))
    if workers <= 1:
        return shard(0, 1)
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return sum(ex.map(shard, range(workers), [workers] * workers))


def _step(chunk, size, k, R, n):
    """Bases per block at level k of a walk of codes (n, R, C) of a form of
    size entries: a block's (kR) x n stacks hold about chunk such forms."""
    return max(1, chunk * max(size, 1) // max(k * R * n, 1))


# batch_rank work (matrices x rows x cols^2) as slow as one block's fixed cost
_BLOCK_WORK = 1 << 13


@lru_cache(maxsize=None)
def _price(ring, size, shape, exps, levels, chunk, cap=None):
    """(bases, blocks, work) of _walk over codes of shape (n, R, C), exps and
    levels, for a form of size entries, at _CHUNK = chunk: the bases of each
    level, summed over the boxes of echelon_bases (none is built), cut into
    blocks by _step, and their batch_rank work, bases x rows x cols^2 of the
    stacks as build_stacks lays them out, plus _BLOCK_WORK a block. Once the
    work passes cap the sums stop there, as the census costs more."""
    n, R, _ = shape
    bases = blocks = work = 0
    for k in levels:
        N, cost = 0, max(k * R, n) * min(k * R, n) ** 2
        for _, start, stop in echelon_bases(ring, exps, k, None):
            N += stop - start
            if cap is not None and work + N * cost > cap:
                return bases + N, blocks, work + N * cost
        bases, blocks = bases + N, blocks - (-N // _step(chunk, size, k, R, n))
        work += N * cost
    return bases, blocks, work + blocks * _BLOCK_WORK


def _point_price(ring, shape, exps=None, level=1):
    """_price of _point_census of a form of shape (nvars, rows, cols), or of
    another level of its walk: level 2 ranks the projective lines."""
    n, R, C = shape
    return _price(ring, R * C, (C, R, n), exps or (1,) * n, (level,), _CHUNK)


def _within(budget, route, *prices):
    """Raise BudgetExceeded, before any census of route starts, if the bases
    of the _price of its censuses exceed budget in all."""
    if sum(bases := [price[0] for price in prices]) > budget:
        raise BudgetExceeded(f"{route} would rank {' + '.join(map(str, bases))} "
                             f"bases, which exceeds budget {budget}")


def _point_census(M, workers, exps=None):
    """{l: #{x : M(x) has rank (row-span length over Z/p^e) l}} over x in
    sum_v Z/r^exps[v] (F_q^nvars if exps is None): level 1 of the walk over
    M's transposed codes (M(x) is the stack at W = <x>), times r - 1 (M is
    linear in x), plus the origin."""
    exps = exps or (1,) * M.nvars
    counts = _walk(M, M.codes.transpose(2, 1, 0), exps, [1], workers)[0]
    counts = counts * (radix(M.fs)[0] - 1)
    counts[0] += 1  # the origin
    return {r: c for r, c in enumerate(counts.tolist()) if c}


def _qbinom(d, k, q):
    """[d choose k]_q, the number of k-dim subspaces of F_q^d (0 if k > d)."""
    num = prod(q ** max(d - i, 0) - 1 for i in range(k))
    return num // prod(q**i - 1 for i in range(1, k + 1))


@lru_cache(maxsize=None)
def _kernel_levels(q, C, skew, known=()):
    """(levels, solve) of the kernel census with C <= R columns over GF(q),
    given S_k for the k in known. g(d) = #{x : dim ker M(x) = d} is 0 off
    the support d in 0..C (C - d even if M is skew). levels are the
    cheapest k whose S_k = sum_d g(d) [d choose k]_q, with S_0 and the
    known S_k (which cost nothing, so are taken first), make a square
    invertible system there: by stacks ranked, [C choose k]_q k, each k
    whose row is independent of those taken (a matroid, so greedy costs
    least). Integer Gauss-Jordan gives g(d) = (c . S) / p for (d, p, c) in
    solve, S = (S_0, the S_k of known, the S_k of levels)."""
    def primitive(row):
        g = gcd(*row)
        return tuple(x // g for x in row)

    support = [d for d in range(C + 1) if not skew or (C - d) % 2 == 0]
    m = len(support)
    rest = sorted(set(range(1, C + 1)) - set(known),
                  key=lambda k: (_qbinom(C, k, q) * k, k))
    taken, basis = [], {}  # pivot column -> row
    for k in [0, *known, *rest]:
        row = [_qbinom(d, k, q) for d in support]
        row += [int(i == len(taken)) for i in range(m)]  # S_k's place in taken
        for j, b in basis.items():
            row = [x * b[j] - row[j] * y for x, y in zip(row, b)]
        j = next((j for j in range(m) if row[j]), None)
        if j is not None:
            basis = {i: primitive([x * row[j] - b[j] * y for x, y in zip(b, row)])
                     for i, b in basis.items()}
            basis[j] = primitive(row)
            taken.append(k)
    if len(taken) < m:
        raise InexactDivision(f"levels {taken} do not determine g on {support}")
    levels = tuple(k for k in taken[1:] if k not in known)
    place = {k: m + i for i, k in enumerate(taken)}  # S_k's column in a row
    S = (0, *known, *levels)
    return levels, tuple((support[j], b[j],
                          tuple(b[place[k]] if k in place else 0 for k in S))
                         for j, b in basis.items())


def _kernel_census(M, workers, known=None):
    """Rank counts from the subspaces W of F_q^C, M transposed to C =
    min(R, C) columns. {x : W <= ker M(x)} = ker M_W (see stacked_ranks),
    so S_k = sum_{dim W = k} q^(n - rk M_W) = sum_d g(d) [d choose k]_q,
    where g(d) counts the x of rank C - d, and S_0 = q^n. known maps k to
    an S_k found elsewhere, which is read and not walked; g is solved for
    exactly from it and the levels of _kernel_levels. The S_k are Python
    ints: they overflow int64 long before q^n does."""
    n, q = M.nvars, M.fs.q
    known = known or {}
    codes = M.codes if M.rows >= M.cols else M.codes.transpose(0, 2, 1)
    C = codes.shape[2]
    levels, solve = _kernel_levels(q, C, M.skew, tuple(known))
    counts = _walk(M, codes, (1,) * C, levels, workers)
    S = [q**n, *known.values()] + [sum(c * q ** (n - r) for r, c in enumerate(row))
                                   for row in counts.tolist()]
    g = {d: divmod(sum(c * s for c, s in zip(cs, S)), p) for d, p, cs in solve}
    # off the origin, the rank is constant on the q - 1 nonzero points of a line
    if any(r or x < 0 or (x - (d == C)) % (q - 1) for d, (x, r) in g.items()):
        raise InexactDivision(f"kernel census {g} is not a count of points")
    return {C - d: x for d, (x, _) in sorted(g.items(), reverse=True) if x}


def _cheaper(M, known=()):
    """(kernel, price): whether the kernel census of M, given the S_k of the
    k in known, costs less than the point census by _price (summed up to the
    point census's work), and the cheaper one's price. check_points first."""
    check_points(M.fs, M.nvars)
    n, R, C = M.codes.shape
    R, C = max(R, C), min(R, C)
    levels = _kernel_levels(M.fs.q, C, M.skew, tuple(known))[0]
    points = _point_price(M.fs, M.codes.shape)
    kernel = _price(M.fs, R * C, (n, R, C), (1,) * C, levels, _CHUNK, points[2])
    return (True, kernel) if kernel[2] < points[2] else (False, points)


def rank_distribution(M, budget=DEFAULT_BUDGET, workers=1, known=None):
    """{rank: #points x in F_q^nvars with rk M(x) = rank}, by the census
    _price rates cheaper (see _cheaper); the kernel census reads the S_k
    of known (see _kernel_census). BudgetExceeded before it starts if it
    would rank more than budget bases. workers shards it over threads; the
    result does not depend on workers."""
    kernel, price = _cheaper(M, tuple(known or ()))
    _within(budget, "the kernel census" if kernel else "the point census", price)
    return _kernel_census(M, workers, known) if kernel else _point_census(M, workers)


def rank_distribution_A(A, budget=DEFAULT_BUDGET, workers=1):
    """mu[i] = #{x in F_q^a : rk A(x) = i}."""
    return CountVector(rank_distribution(A, budget, workers), p=A.fs.p)


def rank_distribution_B(B, budget=DEFAULT_BUDGET, workers=1, known=None):
    """nu[i] = #{y in F_q^b : rk B(y) = 2i}; skew ranks are even. known
    as for rank_distribution."""
    raw = rank_distribution(B, budget, workers, known)
    nu = {}
    for r, n in raw.items():
        if r % 2:
            raise InexactDivision(f"odd rank {r} for a skew matrix")
        nu[r // 2] = n
    return CountVector(nu, p=B.fs.p)


# ---------------------------------------------------------------------------
# Theorem-B route


def _check_class(table):
    """Raise ClassTooLarge unless the nilpotency class is below p."""
    c, p = lower_central_series(table)[1], table.ring.p
    if c >= p:
        raise ClassTooLarge(f"nilpotency class {c} >= p = {p}")


def vectors_theoremB(table, budget=DEFAULT_BUDGET, workers=1):
    """(cc, ch) over GF(p^f) by count_vectors, an image of rank i having
    p^(f i) elements. workers shards each census over threads (see
    rank_distribution). BudgetExceeded before either census starts if
    their bases, A's and B's seeded at level 1, exceed budget in all (see
    _price). A's census is taken first, and it gives B's kernel census its
    level 1: the stack of B at W = <w> is A(w), so S_1 = sum over the lines
    <x> of F_q^a of q^(b - rk A(x)) = (|S(G)| - q^b) / (q - 1), with |S(G)|
    = s_size_from_mu. So each A(x) is ranked once, and the class and
    character totals agree by construction."""
    fs = table.ring
    if not is_field(fs):
        raise ValueError("vectors_theoremB requires a field table")
    _check_class(table)
    A, B = build_commutator_matrices(table)
    _within(budget, "Theorem B", _cheaper(A)[1], _cheaper(B, (1,))[1])
    q, f, h = fs.q, fs.f, table.h
    mu = rank_distribution_A(A, budget, workers)
    level1 = _exact_div(s_size_from_mu(mu.entries, B.nvars, q) - q**B.nvars, q - 1)
    nu = rank_distribution_B(B, budget, workers, {1: level1})
    return count_vectors({f * i: n for i, n in mu.items()},
                         {f * 2 * i: n for i, n in nu.items()},
                         q ** (h - A.nvars), q ** (h - B.nvars), fs.p)


def s_size_from_mu(mu, b, q):
    """|S(G)| = sum_x q^{b - rk A(x)}."""
    return sum(n * q ** (b - i) for i, n in mu.items())


def s_size_from_nu(nu, a, q):
    """|S(G)| = sum_y q^{a - rk B(y)}."""
    return sum(n * q ** (a - 2 * i) for i, n in nu.items())


def class_number(table, budget=DEFAULT_BUDGET):
    """(k(G), |S(G)|). Field tables go through the rank route, modular
    tables through the dual route; k = |S| |Z| / |G'| either way."""
    zorder, dorder = centre(table).order(), derived(table).order()
    if is_field(table.ring):
        _check_class(table)
        A, B = build_commutator_matrices(table)
        s = s_size_from_mu(rank_distribution_A(A, budget).entries, B.nvars, table.ring.q)
        return _exact_div(s * zorder, dorder), s
    k = vectors_dual(table, budget)[0].total()
    return k, _exact_div(k * dorder, zorder)


# ---------------------------------------------------------------------------
# dual route over Z/p^e (and GF(p), which every field table restricts to)


def vectors_dual(table, budget=DEFAULT_BUDGET, workers=1):
    """(cc, ch) by Theorem A over Z/p^e (see count_vectors), with
    B_omega = (omega[e_a, e_b]); |im B_omega| is the index of the radical
    of the form omega[., .] in g. A field table runs over GF(p) as
    restrict_scalars gives it, where lengths are ranks. Both sides are
    point censuses (see _point_census) over Smith coordinates, so each
    ranks one point per orbit of the units, and BudgetExceeded before
    either starts if their bases (see _price) exceed budget in all;
    workers shards them over threads."""
    table = restrict_scalars(table)
    ring, h = table.ring, table.h
    p, e = radix(ring)  # over GF(p) (1 = e) or Z/p^e
    m = p**e
    _check_class(table)
    z = centre(table)
    dsub = derived(table)
    zorder = z.order()
    gorder = m**h

    # g/z is the sum of the Z/d_i on the Vinv_i, d_i > 1; v in g' has Smith
    # coordinates (v V')_i, d'_i < m, and a character is w = sum_i c_i
    # V'[:, i], c_i mod m / d'_i, with omega(v) = w . v. T[a, b, i] =
    # [Vinv_a, Vinv_b] V'[:, i] holds ad_x, rows at the generators of g/z
    # (z brackets to 0), and B_omega, rows and columns there (z lies in
    # every radical).
    dz, _, Vinv = smith_mod(z.vectors, m, h)
    dd, V, _ = smith_mod(dsub.vectors, m, h)
    quo = [i for i, d in enumerate(dz) if d > 1]
    active = [i for i, d in enumerate(dd) if d != m]
    log = {p**a: a for a in range(e + 1)}
    # (shape, exps) of ad_x and of B_omega, priced before T is built
    a, c = len(quo), len(active)
    sides = [((a, a, c), tuple(log[dz[i]] for i in quo)),
             ((c, a, a), tuple(log[m // dd[i]] for i in active))]
    _within(budget, "the dual route", *(_point_price(ring, *side) for side in sides))
    if max(gorder // zorder, dsub.order()) >= 1 << 63:
        raise BudgetExceeded("|g/z| or |g'^| does not fit a 64-bit point index")
    check_modulus(m, h)

    G = np.array([Vinv[i] for i in quo], dtype=np.int64).reshape(-1, h)
    T = np.tensordot(G, structure_tensor(table), 1) % m
    T = np.tensordot(T, np.array(V, dtype=np.int64)[:, active], 1) % m
    T = np.einsum("bj,ajk->abk", G, T) % m
    cs, ds = (_point_census(LinearFormMatrix(ring, codes), workers, exps)
              for codes, (_, exps) in zip((T, T.transpose(2, 0, 1)), sides))
    return count_vectors(cs, ds, zorder, _exact_div(gorder, dsub.order()), p)


# ---------------------------------------------------------------------------
# exact interpolation in q


class QPolynomial:
    """Exact polynomial with rational coefficients, constant term first."""

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    def __call__(self, q):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc if acc.denominator != 1 else int(acc)

    def qminus1_coefficients(self):
        """Coefficients b_j with P(q) = sum_j b_j (q-1)^j."""
        out = [Fraction(0)] * len(self.coeffs)
        for i, a in enumerate(self.coeffs):
            for j in range(i + 1):
                out[j] += a * comb(i, j)
        while out and out[-1] == 0:
            out.pop()
        return out

    def __eq__(self, other):
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        return self.coeffs == [Fraction(c) for c in other]

    def __repr__(self):
        return f"QPolynomial({[str(c) for c in self.coeffs]})"


def poly_fit(samples, integral=False):
    """Exact Lagrange interpolation through (q, value) samples.

    Returns a QPolynomial; with integral=True, any non-integer coefficient
    raises NonIntegralCoefficient. Degree = #samples - 1 (before trimming)."""
    pts = list(samples)
    nodes = [q for q, _ in pts]
    if len(set(nodes)) != len(nodes):
        raise DuplicateNode(f"repeated interpolation node in {nodes}")
    coeffs = [Fraction(0)] * len(pts)
    for i, (qi, vi) in enumerate(pts):
        # numerator polynomial prod_{j != i} (q - q_j), times v_i / denom
        num, denom = [Fraction(1)], Fraction(1)
        for qj in nodes[:i] + nodes[i + 1:]:
            num = [Fraction(0)] + num
            for t in range(len(num) - 1):
                num[t] -= qj * num[t + 1]
            denom *= qi - qj
        for t, c in enumerate(num):
            coeffs[t] += Fraction(vi) / denom * c
    if integral and any(c.denominator != 1 for c in coeffs):
        raise NonIntegralCoefficient(str(coeffs))
    return QPolynomial(coeffs)
