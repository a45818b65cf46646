"""Finite nilpotent Lie rings from structure constants.

A ring is given by a coefficient domain (GF(p^f) or Z/p^e), a dimension h,
and the sparse bracket table [e_i, e_j] = sum_k lambda_ij^k e_k stored for
i < j only. Validation checks antisymmetry, the Jacobi identity, and
nilpotency. adapt_basis reads the coordinates Theorem B needs off the
reduced echelon bases of the centre z and the derived algebra g'.
restrict_scalars takes a GF(p^f) table to the same ring over GF(p).

A table is not changed after construction, so its invariants (the lower
central series, z, g', the adapted basis, and the structure tensor and
group law of the other modules) are computed once per table: per_table
keeps them in the table's _memo. Each subobject takes one elimination per
ring: the reduced echelon form over a field, the local Smith form
(smith_mod) over Z/p^e; span picks the one for the table's ring.

Indices are 0-based throughout this module; the CLI's text format is 1-based.
"""

from __future__ import annotations

from functools import wraps
from math import gcd, prod
from typing import NamedTuple

from .field import FieldSpec, is_prime, make_field


class AntisymmetryViolation(ValueError):
    def __init__(self, i, j, k):
        super().__init__(f"lambda[{i},{j}]^{k} incompatible with lambda[{j},{i}]^{k}")
        self.triple = (i, j, k)


class JacobiViolation(ValueError):
    def __init__(self, i, j, l):
        super().__init__(f"Jacobi identity fails on basis triple ({i},{j},{l})")
        self.triple = (i, j, l)


class NotNilpotent(ValueError):
    pass


class ModRing:
    """Z/p^e with the same coefficient interface as FieldSpec."""

    def __init__(self, p, e):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1:
            raise ValueError(f"exponent e = {e} must be >= 1")
        self.p = p
        self.e = e
        self.m = p**e

    def __repr__(self):
        return f"Z/{self.p}^{self.e}"

    def __eq__(self, other):
        return isinstance(other, ModRing) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash(("ModRing", self.p, self.e))

    def zero(self):
        return 0

    def one(self):
        return 1

    def embed(self, n):
        return n % self.m

    def add(self, x, y):
        return (x + y) % self.m

    def neg(self, x):
        return (-x) % self.m

    def sub(self, x, y):
        return (x - y) % self.m

    def mul(self, x, y):
        return (x * y) % self.m

    def is_zero(self, x):
        return x % self.m == 0

    def is_unit(self, x):
        return x % self.p != 0

    def inv(self, x):
        if not self.is_unit(x):
            raise ZeroDivisionError(f"{x} is not a unit mod {self.p}^{self.e}")
        return pow(x, -1, self.m)

    def elements(self):
        return list(range(self.m))

    def fmt(self, x):
        return str(x)


def is_field(ring):
    return isinstance(ring, FieldSpec)


def per_table(fn):
    """fn(table), computed on the first call for a table and kept in its
    _memo for every later one."""
    @wraps(fn)
    def once(table):
        memo = table._memo
        if fn not in memo:
            memo[fn] = fn(table)
        return memo[fn]

    return once


class LieRing:
    """Structure-constant table of a Lie ring over GF(p^f) or Z/p^e.

    brackets: {(i, j): {k: coeff}} for any i != j; folded to i < j storage.
    Unspecified brackets are zero. Giving both (i,j) and (j,i) is accepted
    only when the two agree up to sign.
    """

    def __init__(self, ring, h, brackets, name=""):
        self.ring = ring
        self.h = h
        self.name = name
        lam = {}
        for (i, j), row in brackets.items():
            if not (0 <= i < h and 0 <= j < h):
                raise ValueError(f"bracket index ({i},{j}) out of range")
            for k, c in row.items():
                if not 0 <= k < h:
                    raise ValueError(f"bracket target {k} out of range")
                c = self._coerce(c)
                if ring.is_zero(c):
                    continue
                if i == j:
                    raise AntisymmetryViolation(i, j, k)
                if i < j:
                    key, val = (i, j), c
                else:
                    key, val = (j, i), ring.neg(c)
                tgt = lam.setdefault(key, {})
                if k in tgt:
                    if tgt[k] != val:
                        raise AntisymmetryViolation(i, j, k)
                else:
                    tgt[k] = val
        self.lam = {ij: row for ij, row in lam.items() if row}
        self._memo = {}  # per_table values

    def _coerce(self, c):
        """An integer embedded in the ring; over GF(p^f), f > 1, also a
        tuple of 1..f integer digits, low degree first, reduced mod p and
        padded to length f. ValueError for anything else."""
        R = self.ring
        if isinstance(c, int):
            return R.embed(c)
        if (isinstance(c, tuple) and is_field(R) and R.f > 1 and 0 < len(c) <= R.f
                and all(isinstance(d, int) for d in c)):
            return tuple(d % R.p for d in c) + (0,) * (R.f - len(c))
        raise ValueError(f"coefficient {c!r} is not an element of {R}")

    def bracket_basis(self, i, j):
        """{k: coeff} for [e_i, e_j]."""
        if i == j:
            return {}
        if i < j:
            return self.lam.get((i, j), {})
        row = self.lam.get((j, i), {})
        return {k: self.ring.neg(c) for k, c in row.items()}

    def bracket(self, u, v):
        """[u, v] for coordinate vectors u, v; returns a coordinate tuple."""
        R = self.ring
        out = [R.zero()] * self.h
        for i in range(self.h):
            if R.is_zero(u[i]):
                continue
            for j in range(self.h):
                if R.is_zero(v[j]):
                    continue
                c = R.mul(u[i], v[j])
                for k, lamk in self.bracket_basis(i, j).items():
                    out[k] = R.add(out[k], R.mul(c, lamk))
        return tuple(out)

    def basis_vector(self, i):
        R = self.ring
        return tuple(R.one() if j == i else R.zero() for j in range(self.h))

    def __repr__(self):
        nm = f" {self.name!r}" if self.name else ""
        return f"LieRing(dim {self.h} over {self.ring}{nm})"


# ---------------------------------------------------------------------------
# linear algebra over a field


def echelon(rows, fs):
    """Reduced row echelon form. Pivots: leftmost nonzero column, first
    nonzero row, scaled monic; zero rows dropped. Deterministic."""
    rows = [list(r) for r in rows if any(not fs.is_zero(x) for x in r)]
    out = []
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        piv = next((r for r in rows if not fs.is_zero(r[col])), None)
        if piv is None:
            col += 1
            continue
        rows.remove(piv)
        inv = fs.inv(piv[col])
        piv = [fs.mul(inv, c) for c in piv]
        reduced = []
        for r in rows:
            c = r[col]
            if not fs.is_zero(c):
                # only a row the pivot changed can have become zero
                r = [fs.sub(x, fs.mul(c, y)) for x, y in zip(r, piv)]
                if all(fs.is_zero(x) for x in r):
                    continue
            reduced.append(r)
        rows = reduced
        # clear the pivot column above
        out = [
            [fs.sub(x, fs.mul(o[col], y)) for x, y in zip(o, piv)]
            if not fs.is_zero(o[col])
            else o
            for o in out
        ]
        out.append(piv)
        col += 1
    return [tuple(r) for r in out]


# ---------------------------------------------------------------------------
# Smith form over the local ring Z/p^e (for Z/p^e subobjects)


def smith_mod(vectors, m, h):
    """Smith data (d, V, Vinv) of the subgroup M of (Z/m)^h generated by
    the vectors, m = p^e: U A V = diag(d) mod m for the matrix A of the
    vectors, with U and V invertible mod m and Vinv V = I mod m.

    Each step moves an entry of least valuation gcd(x, m) in the whole
    rest (commat.batch_rank pivots within a column) to the diagonal,
    scales its row by the inverse of its unit part and clears its row and
    column. Every other entry is then a multiple of the pivot, so each d_i
    is a power of p, d_i | d_{i+1}, and d_i = m where M has no summand.
    V and Vinv are residues mod m.

    M is the direct sum of the <d_i Vinv_i> (rows of Vinv), of orders
    m / d_i; v in M has coordinates (v V)_i / d_i. The quotient
    (Z/m)^h / M is the sum of the Z/d_i, with coset representatives
    sum_i t_i Vinv_i, 0 <= t_i < d_i.
    """
    S = [[int(x) % m for x in v] for v in vectors]
    V = [[int(i == j) for j in range(h)] for i in range(h)]
    Vinv = [list(row) for row in V]
    d = [m] * h
    for t in range(min(len(S), h)):
        g, i, j = min((gcd(x, m), i, j) for i in range(t, len(S))
                      for j, x in enumerate(S[i][t:], t))
        if g == m:
            break
        S[t], S[i] = S[i], S[t]
        for row in S + V:
            row[t], row[j] = row[j], row[t]
        Vinv[t], Vinv[j] = Vinv[j], Vinv[t]
        uinv = pow(S[t][t] // g, -1, m)
        piv = S[t] = [x * uinv % m for x in S[t]]
        for row in S[t + 1:]:
            c = row[t] // g
            if c:
                row[:] = [(x - c * y) % m for x, y in zip(row, piv)]
        for k in range(t + 1, h):
            c = piv[k] // g
            if c:  # column k -= c column t, so Vinv row t += c row k
                for row in V:
                    row[k] = (row[k] - c * row[t]) % m
                Vinv[t] = [(x + c * y) % m for x, y in zip(Vinv[t], Vinv[k])]
        d[t] = g
    return d, V, Vinv


class SubspaceBasis:
    """Subobject of the free module R^h.

    Field case: vectors in reduced echelon form, orders None.
    Modular case: generating vectors with their cyclic orders (> 1 only).
    """

    def __init__(self, ring, h, vectors, orders=None):
        self.ring = ring
        self.h = h
        self.vectors = [tuple(v) for v in vectors]
        self.orders = list(orders) if orders is not None else None

    @property
    def dim(self):
        if self.orders is not None:
            raise ValueError("dim is a field-case notion; use order()")
        return len(self.vectors)

    def order(self):
        """Cardinality of the spanned subgroup."""
        if self.orders is None:
            return self.ring.q ** len(self.vectors)
        return prod(self.orders)

    def __repr__(self):
        if self.orders is None:
            return f"SubspaceBasis(dim {len(self.vectors)} of {self.h})"
        return f"SubspaceBasis(orders {self.orders} in rank {self.h})"


def span(vectors, ring, h):
    """The subobject of ring^h the vectors generate: its reduced echelon
    basis over a field, span_mod's generators and orders over Z/p^e."""
    if is_field(ring):
        return SubspaceBasis(ring, h, echelon(vectors, ring))
    return span_mod(vectors, ring, h)


def span_mod(vectors, ring, h):
    """Canonical generators and cyclic orders of the subgroup of (Z/m)^h
    generated by the given vectors."""
    m = ring.m
    d, _, Vinv = smith_mod(vectors, m, h)
    gens = [tuple(di * x % m for x in row) for di, row in zip(d, Vinv) if di != m]
    return SubspaceBasis(ring, h, gens, [m // di for di in d if di != m])


def kernel_mod(C, ring):
    """Generators and orders of {x in (Z/m)^n : x C = 0 mod m}.

    With U C^T V = diag(d), x C = 0 iff y = V^{-1} x^T has d_i y_i = 0
    mod m, so the generators are the columns of V, column i scaled by
    m / d_i and of order d_i."""
    m, n = ring.m, len(C)
    d, V, _ = smith_mod(list(zip(*C)), m, n)
    gens = [tuple(m // di * row[i] % m for row in V)
            for i, di in enumerate(d) if di != 1]
    return gens, [di for di in d if di != 1]


# ---------------------------------------------------------------------------
# validation


def _signed_brackets(table):
    """{(i, j): {k: coeff}} of [e_i, e_j] for every stored bracket, in both
    orders: the table's i < j rows and their negatives."""
    R = table.ring
    out = {}
    for (i, j), row in table.lam.items():
        out[i, j] = row
        out[j, i] = {k: R.neg(c) for k, c in row.items()}
    return out


def validate(table):
    """Raise AntisymmetryViolation / JacobiViolation / NotNilpotent unless
    the table is a valid nilpotent Lie ring."""
    R = table.ring
    h = table.h
    br = _signed_brackets(table)
    # antisymmetry is structural: storage is i < j with the sign folded in,
    # and the constructor drops zero coefficients
    # Jacobi: [[ei,ej],el] + [[ej,el],ei] + [[el,ei],ej] = 0
    for i in range(h):
        for j in range(i + 1, h):
            rij = br.get((i, j), {})
            for l in range(j + 1, h):
                rjl = br.get((j, l), {})
                rli = br.get((l, i), {})
                if not (rij or rjl or rli):
                    continue
                acc = {}
                for row, t in ((rij, l), (rjl, i), (rli, j)):
                    for mvar, c in row.items():
                        for k, lamk in br.get((mvar, t), {}).items():
                            acc[k] = R.add(acc.get(k, R.zero()), R.mul(c, lamk))
                if any(not R.is_zero(v) for v in acc.values()):
                    raise JacobiViolation(i, j, l)
    lower_central_series(table)  # raises NotNilpotent if it stabilizes


@per_table
def derived(table):
    """g' = span of all [e_i, e_j]."""
    h, R = table.h, table.ring
    vecs = []
    for (i, j), row in table.lam.items():
        v = [R.zero()] * h
        for k, c in row.items():
            v[k] = c
        vecs.append(tuple(v))
    return span(vecs, R, h)


@per_table
def lower_central_series(table):
    """(series, c) with series = (gamma_1, ..., gamma_{c+1}), last one zero:
    gamma_1 = g has the standard basis, gamma_2 = g' is derived(table),
    gamma_{i+1} the span of the [v, e_j] = sum_i v_i [e_i, e_j] for v in
    gamma_i, read off the stored brackets at v's nonzero coordinates."""
    h, R = table.h, table.ring
    br = _signed_brackets(table)
    full = SubspaceBasis(R, h, [table.basis_vector(i) for i in range(h)],
                         None if is_field(R) else [R.m] * h)
    series, nxt = [full], derived(table)
    while series[-1].order() > 1:
        if nxt.order() == series[-1].order():
            raise NotNilpotent(f"lower central series stabilizes at order {nxt.order()}")
        series.append(nxt)
        brackets = []
        for v in nxt.vectors:
            support = [(i, x) for i, x in enumerate(v) if not R.is_zero(x)]
            for j in range(h):
                out = [R.zero()] * h
                for i, x in support:
                    for k, c in br.get((i, j), {}).items():
                        out[k] = R.add(out[k], R.mul(x, c))
                if any(not R.is_zero(y) for y in out):
                    brackets.append(tuple(out))
        nxt = span(brackets, R, h)
    c = len(series) - 1
    if c == 0:
        # zero algebra: treat as class 1 with gamma_2 = 0
        series.append(full)
        c = 1
    return tuple(series), c


def nilpotency_class(table):
    return lower_central_series(table)[1]


@per_table
def centre(table):
    """z = {x : x C = 0}, column (i, k) of C holding coordinate k of
    [e_i, x]; C has only the columns a stored bracket reaches, as no other
    can be nonzero. One elimination: kernel_mod over Z/p^e; over a field,
    the rows of the reduced echelon form of [C | I] that vanish on C, whose
    I parts are then the reduced echelon basis of z."""
    h, R = table.h, table.ring
    cols = sorted({(i, k) for ij, row in table.lam.items() for i in ij for k in row})
    pos = {ik: n for n, ik in enumerate(cols)}
    C = [[R.zero()] * len(cols) for _ in range(h)]
    for (i, j), row in table.lam.items():
        for k, c in row.items():
            C[j][pos[i, k]] = c  # [e_i, e_j] = c e_k + ...
            C[i][pos[j, k]] = R.neg(c)
    if not is_field(R):
        return SubspaceBasis(R, h, *kernel_mod(C, R))
    w = len(cols)
    aug = [row + [R.one() if t == l else R.zero() for t in range(h)]
           for l, row in enumerate(C)]
    return SubspaceBasis(R, h, [row[w:] for row in echelon(aug, R)
                                if all(R.is_zero(x) for x in row[:w])])


class AdaptedBasis(NamedTuple):
    """Coordinates for Theorem B, read off the reduced echelon bases of z
    and g'. The e_j, j in front (the non-pivot columns of z), form a basis
    of g modulo z; tail holds the pivot columns of g', so v in g' equals
    sum_k v[tail[k]] D_k over the echelon rows D_k."""

    front: list
    tail: list


@per_table
def adapt_basis(table):
    """AdaptedBasis(front, tail) of a field table, a = len(front) = dim g/z
    and b = len(tail) = dim g'."""
    fs = table.ring
    if not is_field(fs):
        raise ValueError("adapt_basis requires a field table")

    def pivots(basis):
        return [next(j for j, x in enumerate(v) if not fs.is_zero(x))
                for v in basis.vectors]

    zpiv = set(pivots(centre(table)))
    return AdaptedBasis([j for j in range(table.h) if j not in zpiv],
                        pivots(derived(table)))


def base_change(table, m):
    """Reinterpret a GF(p^f) table over GF(p^{f m}); the lambda tensor is
    carried over entrywise. Constants must lie in the prime subfield."""
    fs = table.ring
    if not is_field(fs):
        raise ValueError("base_change requires a field table")
    if m == 1:
        return table
    big = make_field(fs.p, fs.f * m)

    def lift(c):
        if fs.f == 1:
            return big.embed(c)
        if any(c[1:]):
            raise ValueError("structure constant outside the prime subfield")
        return big.embed(c[0])

    new_brackets = {
        ij: {k: lift(c) for k, c in row.items()} for ij, row in table.lam.items()
    }
    return LieRing(big, table.h, new_brackets, table.name)


@per_table
def restrict_scalars(table):
    """A GF(p^f) table, f > 1, as the same Lie ring over GF(p), and so the
    same group on (Z/p)^{hf}: the basis t^s e_i sits at index i f + s, and
    [t^s e_i, t^u e_j] has the base-p digits of t^(s+u) lambda_ij^k at the
    indices k f + r. Any other table is returned as it is, memo and all."""
    R = table.ring
    if not is_field(R) or R.f == 1:
        return table
    f = R.f
    t = [R.power(R.from_int(R.p), n) for n in range(2 * f - 1)]  # the t^(s+u)
    brackets = {(i * f + s, j * f + u): {k * f + r: d for k, c in row.items()
                                         for r, d in enumerate(R.mul(t[s + u], c))}
                for (i, j), row in table.lam.items() for s in range(f) for u in range(f)}
    return LieRing(make_field(R.p), table.h * f, brackets, table.name)
