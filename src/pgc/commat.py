"""Commutator matrices A(X), B(Y) and rank machinery over GF(q) and Z/p^e.

Everything starts from the structure tensor T[i, j, k] = lambda_ij^k of a
table, as int64 codes (structure_tensor). A is a x b in the variables
X_1..X_a with A(X)_{ik} = sum_j lambda_ij^k X_j; B is the skew a x a
matrix with B(Y)_{ij} = sum_k lambda_ij^k Y_k. Both read one block of T in
the coordinates of adapt_basis: the e_i run over a basis of g modulo the
centre, and k over the echelon basis of g'. Rank loci of A give class
sizes, of B character degrees. Censuses walk the reduced echelon bases of
subspaces (echelon_bases); its 1-dimensional level is one generator per
cyclic subgroup of a sum of cyclic p-groups, the monic points of F_q^n over
a field. No basis is written out: build_stacks writes each block's stacks
M_W as a head per run plus odometer tails shared by the runs, straight
into the layout of the one elimination loop, _eliminate, which gives
ranks over GF(q) and row-span lengths over Z/p^e, the dual route's image
sizes; batch_rank runs it on a copy of any batch of matrices.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache, reduce
from itertools import combinations, product
from math import prod

import numpy as np

from .liecore import ModRing, adapt_basis, echelon, is_field, per_table


class NotSkew(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class LinearFormMatrix:
    """Matrix of linear forms over GF(q) or Z/p^e: M(x) = sum_v x_v
    codes[v], codes an (nvars, rows, cols) int64 array of fs.to_int codes
    resp. residues. skew=True (GF(q) only) claims every M(x) alternating,
    which the censuses rely on; NotSkew is raised unless each codes[v] is
    square with a zero diagonal and codes[v]^T = -codes[v]."""

    def __init__(self, fs, codes, skew=False):
        self.fs = fs
        self.codes = codes
        self.nvars, self.rows, self.cols = codes.shape
        self.skew = skew
        if skew:
            if self.rows != self.cols:
                raise NotSkew(f"skew matrix of shape {self.rows} x {self.cols}")
            if np.diagonal(codes, axis1=1, axis2=2).any():
                raise NotSkew("nonzero diagonal entry")
            p = fs.p
            neg = sum((-(codes // p**k) % p) * p**k for k in range(fs.f))
            if not np.array_equal(codes.transpose(0, 2, 1), neg):
                raise NotSkew("codes[v] + codes[v]^T is not zero")

    @cached_property
    def _terms(self):
        """Entry (r, c) as its (v, coefficient) pairs, zeros left out."""
        fs = self.fs
        return [[[(v, fs.from_int(x)) for v, x in enumerate(entry) if x] for entry in row]
                for row in self.codes.transpose(1, 2, 0).tolist()]

    def evaluate(self, point):
        """Substitute the variables; returns a list of row tuples."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        fs = self.fs

        def entry(terms):
            return reduce(fs.add, (fs.mul(cf, point[v]) for v, cf in terms), fs.zero())

        return [tuple(map(entry, row)) for row in self._terms]

    def __str__(self):
        def entry(terms):
            return " + ".join(f"{self.fs.fmt(cf)}*V{v + 1}" for v, cf in terms) or "0"

        return "\n".join("[" + ", ".join(map(entry, row)) + "]" for row in self._terms)


@per_table
def structure_tensor(table):
    """T[i, j, k] = lambda_ij^k, antisymmetric in i, j: a read-only
    (h, h, h) int64 array of fs.to_int codes over GF(q), of residues mod p^e
    over Z/p^e."""
    ring, h = table.ring, table.h
    code = ring.to_int if is_field(ring) else (lambda c: c % ring.m)
    T = np.zeros((h, h, h), dtype=np.int64)
    for (i, j), row in table.lam.items():
        for k, c in row.items():
            T[i, j, k], T[j, i, k] = code(c), code(ring.neg(c))
    T.setflags(write=False)
    return T


def build_commutator_matrices(table):
    """(A, B) of a field table in the coordinates of adapt_basis: X_j on
    e_front[j], Y_k on the k-th echelon basis vector of g'. L[i, j, k] =
    lambda_{front i, front j}^{tail k} holds A's codes as [j, i, k] and
    B's as [k, i, j]."""
    front, tail = adapt_basis(table)
    L = structure_tensor(table)[np.ix_(front, front, tail)]
    return (LinearFormMatrix(table.ring, L.transpose(1, 0, 2)),
            LinearFormMatrix(table.ring, L.transpose(2, 0, 1), skew=True))


def rank(matrix, fs):
    """Row rank by Gaussian elimination; matrix is a list of row sequences.
    The reference batch_rank is tested against."""
    return len(echelon(matrix, fs))


_STEP = 1 << 15  # points per block of the projective census and its lines

# Element tables are O(q) int64 arrays, so larger fields are refused.
_MAX_TABLE_Q = 1 << 20


def check_points(fs, n):
    """Raise BudgetExceeded unless q^n fits an int64 point index."""
    total = fs.q**n
    if total >= 1 << 63:
        raise BudgetExceeded(f"q^n = {total} does not fit a 64-bit point index")


def check_modulus(m, terms=1):
    """Raise BudgetExceeded unless a sum of `terms` products of residues
    mod m fits an int64."""
    if terms * (m - 1) ** 2 >= 1 << 63:
        raise BudgetExceeded(
            f"sums of {terms} products mod {m} do not fit 64-bit integers")


def _powers(fs, g):
    """Codes of g^0 .. g^(q-2), by doubling: the block k..2k-1 is the block
    0..k-1 times g^k, a linear map on the base-p digits."""
    p, q = fs.p, fs.q
    pw = p ** np.arange(fs.f, dtype=np.int64)
    out = np.ones(1, dtype=np.int64)
    gk = fs.from_int(g)
    while out.size < q - 1:
        T = np.array([fs.mul(fs.from_int(int(w)), gk) for w in pw], dtype=np.int64)
        digits = (out[:, None] // pw) % p
        out = np.concatenate([out, (digits @ T) % p @ pw])
        gk = fs.mul(gk, gk)
    return out[: q - 1]


def _arith(fs):
    """(add, mul, ninv) on int64 arrays of elements coded by fs.to_int:
    add(x, y) = x + y, mul(a, y) = a y, ninv[a] = -1/a (ninv[0] = 0).
    Prime fields and extension fields keep the last four of their kind
    each, so a run over a few fields of both builds each one once and
    holds at most eight O(q) tables."""
    if fs.q > _MAX_TABLE_Q:
        raise BudgetExceeded(f"GF({fs.q}) exceeds the {_MAX_TABLE_Q}-element table limit")
    return (_extension_arith if fs.f > 1 else _prime_arith)(fs)


@lru_cache(maxsize=4)
def _prime_arith(fs):
    """_arith of GF(p): residues mod p."""
    p = fs.p
    ninv = np.array([0] + [p - pow(v, p - 2, p) for v in range(1, p)], np.int64)
    ninv.setflags(write=False)
    return (lambda x, y: (x + y) % p), (lambda a, y: a * y % p), ninv


@lru_cache(maxsize=4)
def _extension_arith(fs):
    """_arith of GF(p^f), f > 1: products through log and antilog arrays
    of length O(q), sums digit by digit mod p."""
    p, q = fs.p, fs.q
    for g in range(2, q):
        exp = _powers(fs, g)
        if not (exp[1:] == 1).any():  # g is primitive
            break
    # log[0] points past the doubled antilog array into its zero tail, so a
    # product with a zero factor reads 0
    log = np.empty(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    log[0] = 2 * (q - 1)
    antilog = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
    antilog[: 2 * (q - 1)] = np.tile(exp, 2)
    ninv = np.zeros(q, dtype=np.int64)  # -1 = g^((q-1)/2), or 1 when p = 2
    ninv[exp] = exp[(-np.arange(q - 1) + (q - 1) // 2 * (p != 2)) % (q - 1)]
    pw = [p**k for k in range(fs.f)]
    for arr in (log, antilog, ninv):
        arr.setflags(write=False)

    def mul(a, y):
        return antilog[log[a] + log[y]]

    def add(x, y):
        return sum(((x // w + y // w) % p) * w for w in pw)

    return add, mul, ninv


def _power(u, k, m):
    """u^k mod m entrywise, by square and multiply."""
    out = np.ones_like(u)
    while k:
        if k & 1:
            out = out * u % m
        u = u * u % m
        k >>= 1
    return out


def _work_dtype(ring, R, C):
    """The dtype of the elimination of R x C matrices, C <= R (see
    batch_rank): int32 over GF(p) and Z/p^e (m = |ring|) while
    C (m - 1)^2 + m < 2^31, else int64. BudgetExceeded unless
    check_modulus(m, C) bounds the entries in int64."""
    r, e = radix(ring)
    m = r**e
    check_modulus(m, C)
    lazy = isinstance(ring, ModRing) or ring.f == 1
    return np.int32 if lazy and C * (m - 1) ** 2 + m < 1 << 31 else np.int64


def batch_rank(M, ring):
    """Ranks of a batch of matrices over GF(q), or over Z/p^e the length l
    of each row span (|span| = p^l). M (N, R, C), int64, holds fs.to_int
    codes resp. residues mod p^e, and is left as it is: _eliminate runs on
    a copy laid out (R, C, N), the batch axis innermost, transposed first
    if that leaves fewer columns (the work grows with R C^2), in
    _work_dtype."""
    M = M.transpose(1, 2, 0) if M.shape[1] >= M.shape[2] else M.transpose(2, 1, 0)
    return _eliminate(np.array(M, dtype=_work_dtype(ring, *M.shape[:2]), order="C"), ring)


def _eliminate(work, ring):
    """The ranks resp. lengths of the matrices work[:, :, j], j < N, of
    work (R, C, N) in the layout and dtype of batch_rank, holding codes
    resp. residues; work is overwritten. Over GF(p) and Z/p^e an entry
    may start anywhere below 2m: with the growth below it stays at most
    C (m - 1)^2 + m.

    At column col every lane picks a pivot row y and adds x_col (-y /
    y_col) to each row x, right of col (0 without a pivot). Over a field y
    is the first nonzero row and is cleared itself; rows pivoted earlier
    are zero right of their column, so no rows are swapped. Over Z/p^e
    (m = p^e) y_col = p^v u, u a unit, has least valuation, so x gets the
    exact (x_col / p^v) (-u^-1 y), and y's row takes the coefficient
    u (1 - p^(e-v)), leaving p^(e-v) y: t y lies in the span of the new
    rows exactly when p^(e-v) | t, so the column adds e - v to the length.
    At e = 1, where p y = 0, the valuation steps are skipped. -u^-1 is
    read from a table over GF(q), and over Z/p^e it is -u^(phi(m) - 1) by
    square and multiply.

    Over GF(p) and Z/p^e the entries stay unreduced integers, growing by
    at most (m - 1)^2 a column (m = p over GF(p)), and only the pivot
    column and pivot row are reduced mod m, where they are read; the
    bounds of _work_dtype keep them exact. GF(p^f) keeps its log/antilog
    arithmetic."""
    R, C, N = work.shape
    r, e = radix(ring)
    m = r**e
    if isinstance(ring, ModRing):  # phi(m) = m (1 - 1/p)
        lazy, ninv = True, lambda u: -_power(u, m // r * (r - 1) - 1, m) % m
    else:
        add, mul, table = _arith(ring)
        lazy, ninv = ring.f == 1, table.__getitem__
    flat, ranks = work.reshape(-1), np.zeros(N, dtype=np.int64)
    lanes, pw = np.arange(N), r ** np.arange(e + 1)
    # flat index of entry (0, c, n) is c N + n; of row r, r C N more
    grid = np.arange(C)[:, None] * N + lanes
    for col in range(C):
        colv = work[:, col]
        if lazy:
            colv -= colv // m * m
        if e == 1:
            piv = (colv != 0).argmax(axis=0)
            u = colv[piv, lanes]
            ranks += u != 0
        else:
            g = np.gcd(colv, m)  # p^v, or m at a zero entry
            piv = g.argmin(axis=0)
            pv = g[piv, lanes]
            ranks += e - np.searchsorted(pw, pv)
            colv //= pv
            u = colv[piv, lanes]
            colv[piv, lanes] = u * (1 - m // pv) % m
        if col + 1 == C:
            break
        s = flat[grid[col + 1 :] + piv * (C * N)]
        if lazy:
            s -= s // m * m
            s *= ninv(u)
            s -= s // m * m
            work[:, col + 1 :] += colv[:, None] * s
        else:
            work[:, col + 1 :] = add(work[:, col + 1 :], mul(colv[:, None], mul(s, ninv(u))))
    return ranks


def radix(ring):
    """(r, e) with |ring| = r^e, the scalars of the echelon walk: (q, 1)
    over GF(q), (p, e) over Z/p^e."""
    return (ring.p, ring.e) if isinstance(ring, ModRing) else (ring.q, 1)


def _free_entries(exps, box):
    """[(i, c, t)] of the free entries of the bases in box (s, piv) (see
    echelon_bases), row by row: entry (i, c), c off the pivots, runs over
    the elements of order at most r^t of Z/r^exps[c], t = s - 1 left of
    row i's pivot and s right of it, capped at exps[c]; t = 0 leaves it 0."""
    s, piv = box
    return [(i, c, t) for i, j in enumerate(piv) for c, a in enumerate(exps)
            if c not in piv and (t := min(a, s - (c < j)))]


def echelon_bases(ring, exps, k, step):
    """The level-k bases of the walk of sum_c Z/r^exps[c] ((r, e) =
    radix(ring)), as descriptors (box, start, stop) of blocks of at most
    step bases of one box (the whole box if step is None); build_stacks
    builds their stacks. Level 1 holds one generator per cyclic subgroup,
    so one point per orbit of the units: box (s, (j,)) those of order r^s
    whose first coordinate of that order, j, is r^(exps[j] - s);
    coordinates before j have order below r^s, those after it at most r^s.
    Over GF(q) (every exps[c] 1, r = q, s = 1; k >= 2 needs it) level k
    holds every k-dimensional subspace of F_q^n once as its reduced
    echelon basis, box (1, piv) per pivot set piv in combinations order;
    level 1 is the monic points in projective_points order. The free
    entries of a box are the base-r digits of a running index, last
    fastest, each scaled into its subgroup."""
    r = radix(ring)[0]
    for s in range(1, max(exps, default=1) + 1):
        for piv in combinations(range(len(exps)), k):
            if min(exps[j] for j in piv) >= s:
                size = r ** sum(t for *_, t in _free_entries(exps, (s, piv)))
                width = step or size
                for start in range(0, size, width):
                    yield (s, piv), start, min(start + width, size)


def _runs(start, stop, radices):
    """The bases start..stop-1 of a box whose free entries are digits of
    the given radices, last fastest, as aligned runs (x, J, count): from
    base x on, digit J takes count consecutive values and every digit
    after J all of its own, the digits before J fixed. J = len(radices)
    (no free entry) is the one base x."""
    radices = [*radices, 1]
    place = [prod(radices[j + 1 :]) for j in range(len(radices))]
    while start < stop:
        J = next(j for j, w in enumerate(place) if start % w == 0 and w <= stop - start)
        count = min(radices[J] - start // place[J] % radices[J], (stop - start) // place[J])
        yield start, J, count
        start += count * place[J]


def build_stacks(ring, codes, exps, block):
    """The stacks M_W (see stacked_ranks) of the bases of block, pieces
    (box, start, stop) of one level k of echelon_bases, in order, laid out
    for _eliminate: (kR, n, N), or (n, kR, N) if that leaves fewer columns,
    in _work_dtype.

    No basis is written out. In a box the free entries of a base are the
    digits of its index, last fastest; in a run (x, J, count) of _runs
    digit J counts up and every later digit takes all its values. So row
    block i of the run, M(w_i) = sum_c w_ic codes[:, :, c]^T, is a head
    broadcast against a tail. The head is the term of row i's pivot plus
    the terms d r^(exps[c] - t) codes[:, :, c]^T of its digits up to J, one
    value per value of digit J; the tail, the odometer sum of the terms of
    its digits after J, is summed from the last digit outwards and shared
    by the runs of the block. Over GF(p) and Z/p^e every sum is reduced by
    one compare-and-subtract but head plus tail, which writes the stacks
    and is left below 2m, as _eliminate allows; over GF(p^f) every sum is
    _arith's digit-wise add."""
    r, e = radix(ring)
    m = r**e
    n, R, _ = codes.shape
    k = len(block[0][0][1])
    N = sum(stop - start for _, start, stop in block)
    tall = k * R >= n
    shape = (k * R, n) if tall else (n, k * R)
    out = np.empty((*shape, N), dtype=_work_dtype(ring, *shape))
    blocks = out.reshape(k, R, n, N) if tall else out.reshape(n, k, R, N).transpose(1, 0, 2, 3)
    _, a, b, _ = blocks.shape
    # G[c] = codes[:, :, c]^T as a row block; a product of two residues fits the dtype
    G = (codes.transpose(2, 1, 0) if tall else codes.transpose(2, 0, 1)).astype(out.dtype)
    if isinstance(ring, ModRing) or ring.f == 1:
        def times(v, c):  # v[..., None, None] G[c], reduced
            return G[c] * v.astype(out.dtype)[..., None, None] % m

        def plus(x, y):
            z = x + y
            u = z.view(f"u{z.itemsize}")  # below m, u - m wraps past u
            np.minimum(u, u - m, out=u)
            return z

        def final(x, y, to):
            np.add(x, y, out=to)
    else:
        add, mul, _ = _arith(ring)

        def times(v, c):
            return mul(G[c], v[..., None, None])

        plus = add

        def final(x, y, to):
            to[...] = add(x, y)

    tails = {}

    def tail(entries):
        """The terms of entries ((c, t), ...) summed over every tuple of
        their digits, last fastest: (a, b, prod r^t)."""
        if entries not in tails:
            (c, t), rest = entries[0], entries[1:]
            T = times(np.arange(r**t) * r ** (exps[c] - t), c).transpose(1, 2, 0)
            if rest:
                S = tail(rest)
                T = plus(T[..., None], S[..., None, :]).reshape(a, b, T.shape[2] * S.shape[2])
            tails[entries] = T
        return tails[entries]

    at = 0
    for (s, piv), start, stop in block:
        free = _free_entries(exps, (s, piv))
        radices = [r**t for _, _, t in free]
        place = [prod(radices[j + 1 :]) for j in range(len(free) + 1)]
        pivot_terms = times(np.array([r ** (exps[p] - s) for p in piv]), list(piv))
        for x, J, count in _runs(start, stop, radices):
            size = count * place[J]
            run = blocks[..., at : at + size]
            at += size
            digit = [x // w % d for w, d in zip(place, radices)]
            for i in range(k):
                head = pivot_terms[i][None]  # (count, a, b) once digit J is added
                for j, (row, c, t) in enumerate(free[: J + 1]):
                    if row == i and (digit[j] or j == J):  # a zero digit adds 0
                        d = np.arange(digit[j], digit[j] + (count if j == J else 1))
                        head = plus(head, times(d * r ** (exps[c] - t), c))
                H = head.transpose(1, 2, 0)
                own = tuple((c, t) for row, c, t in free[J + 1 :] if row == i)
                if not own:
                    run[i].reshape(a, b, len(head), size // len(head))[...] = H[..., None]
                    continue
                S = tail(own)
                inner = prod(r**t for row, _, t in free[J + 1 :] if row > i)
                outer = size // (len(head) * S.shape[2] * inner)
                final(H[:, :, :, None, None, None], S[:, :, None, None, :, None],
                      run[i].reshape(a, b, len(head), outer, S.shape[2], inner))
    return out


def stacked_ranks(ring, codes, exps, block):
    """Ranks (lengths over Z/p^e) of the (kR) x n matrices M_W of
    x -> (M(x) w_1, ..., M(x) w_k) for the bases w of block (see
    build_stacks); codes (n, R, C) are M's. With codes.transpose(2, 1, 0)
    and k = 1, M_W is M(w)."""
    return _eliminate(build_stacks(ring, codes, exps, block), ring)


def pfaffian(matrix, fs):
    """Pfaffian of a skew matrix; 0 for odd size. Convention:
    Pf([[0, s], [-s, 0]]) = s, expansion along the first row."""
    n = len(matrix)
    rows = [list(r) for r in matrix]
    for i in range(n):
        if not fs.is_zero(rows[i][i]):
            raise NotSkew("nonzero diagonal entry")
        for j in range(i + 1, n):
            if rows[i][j] != fs.neg(rows[j][i]):
                raise NotSkew(f"entries ({i},{j}) and ({j},{i}) not opposite")
    if n % 2 == 1:
        return fs.zero()

    def pf(idx):
        if not idx:
            return fs.one()
        i0 = idx[0]
        acc = fs.zero()
        for t in range(1, len(idx)):
            c = rows[i0][idx[t]]
            if fs.is_zero(c):
                continue
            rest = idx[1:t] + idx[t + 1:]
            term = fs.mul(c, pf(rest))
            # expansion sign (-1)^(t+1) on the t-th remaining column
            acc = fs.add(acc, term if t % 2 == 1 else fs.neg(term))
        return acc

    return pf(tuple(range(n)))


def projective_points(fs, b):
    """Monic representatives of P^{b-1}(F_q): first nonzero coordinate 1,
    in odometer order of the free coordinates."""
    return [(fs.zero(),) * lead + (fs.one(),) + tail for lead in range(b)
            for tail in product(fs.elements(), repeat=b - lead - 1)]


def projective_lines(fs, b):
    """Every line of P^{b-1}(F_q) once, as (n, q+1) arrays holding the
    indices of its points in projective_points order. A line is the span
    of a reduced echelon pair u, v (echelon_bases with k = 2); its points
    v and u + t v, t in F_q, are all monic. The pairs are the stacks of
    the identity form x -> x (see build_stacks)."""
    q, (add, mul, _) = fs.q, _arith(fs)
    pw = q ** np.arange(b - 1, -1, -1, dtype=np.int64)
    # a monic point x with first nonzero coordinate l has index base[l] + x pw
    base = np.cumsum([0] + [q ** (b - 1 - lead) for lead in range(b - 1)]) - pw
    t = np.arange(q, dtype=np.int64)[None, :, None]
    eye = np.eye(b, dtype=np.int64)[:, None, :]
    for piece in echelon_bases(fs, (1,) * b, 2, max(1, _STEP // (q + 1))):
        W = build_stacks(fs, eye, (1,) * b, [piece]) % q  # (2, b, N), or (b, 2, N)
        U, V = (W if b <= 2 else W.transpose(1, 0, 2)).transpose(0, 2, 1)
        piv = piece[0][1]
        on_u = base[piv[0]] + add(U[:, None], mul(t, V[:, None])) @ pw
        on_v = base[piv[1]] + V @ pw
        yield np.concatenate([on_v[:, None], on_u], axis=1)


def projective_rank_census(B):
    """Counts of each rank over P^{b-1}(F_q) plus the line condition:
    does every projective line contain a point of full rank? The ranks
    come from the k = 1 level of the echelon walk: B(x) is the stack at
    W = <x> of the transposed codes (see stacked_ranks)."""
    fs = B.fs
    b = B.nvars
    if b < 1:
        return {}, True
    check_points(fs, b)
    codes = B.codes.transpose(2, 1, 0)
    ranks = np.concatenate([stacked_ranks(fs, codes, (1,) * b, [blk])
                            for blk in echelon_bases(fs, (1,) * b, 1, _STEP)])
    census = dict(Counter(ranks.tolist()))
    full = ranks == B.rows
    for lines in projective_lines(fs, b):
        if not full[lines].any(axis=1).all():
            return census, False
    return census, True
