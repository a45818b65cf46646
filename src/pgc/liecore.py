"""Finite nilpotent Lie rings from structure constants.

A ring is given by a coefficient domain (GF(p^f) or Z/p^e), a dimension h,
and the sparse bracket table [e_i, e_j] = sum_k lambda_ij^k e_k stored for
i < j only. Validation checks antisymmetry, the Jacobi identity, and
nilpotency. adapt_basis reorders so that positions 1..a project to a basis
of g/z and the last b positions span g'; those index windows may overlap.

Indices are 0-based throughout this module; the CLI's text format is 1-based.
"""

from __future__ import annotations

from math import gcd

from .field import FieldSpec, is_prime


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

    def _coerce(self, c):
        if isinstance(c, int):
            return self.ring.embed(c)
        return c

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
    rows = [list(r) for r in rows]
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
                r = [fs.sub(x, fs.mul(c, y)) for x, y in zip(r, piv)]
            reduced.append(r)
        rows = [r for r in reduced if any(not fs.is_zero(x) for x in r)]
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


def in_span(rows, v, fs):
    """Is v in the row span? rows need not be echelonized."""
    return len(echelon(list(rows) + [v], fs)) == len(echelon(rows, fs))


def invert_matrix(rows, fs):
    """Inverse of a square matrix given as a list of rows."""
    n = len(rows)
    aug = [list(r) + [fs.one() if t == i else fs.zero() for t in range(n)]
           for i, r in enumerate(rows)]
    ech = echelon(aug, fs)
    if len(ech) != n:
        raise ValueError("matrix is singular")
    inv = [None] * n
    for row in ech:
        pc = next(c for c in range(2 * n) if not fs.is_zero(row[c]))
        assert pc < n, "matrix is singular"
        inv[pc] = row[n:]
    return [tuple(r) for r in inv]


# ---------------------------------------------------------------------------
# integer Smith normal form (for Z/p^e subobjects)


def smith_normal_form(A):
    """S = U A V with U, V unimodular, S diagonal, d_i | d_{i+1}, d_i >= 0.

    Only the column side is tracked: returns (S, V, Vinv) as lists of
    lists of ints, with Vinv the exact inverse of V. U is not built.
    """
    n = len(A)
    m = len(A[0]) if n else 0
    S = [list(r) for r in A]
    V = [[int(i == j) for j in range(m)] for i in range(m)]
    Vinv = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]

    def swap_cols(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def addmul_row(dst, src, c):
        S[dst] = [x + c * y for x, y in zip(S[dst], S[src])]

    def addmul_col(dst, src, c):
        for r in S:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]
        # V <- V (I + c E_src,dst), so Vinv <- (I - c E_src,dst) Vinv
        Vinv[src] = [x - c * y for x, y in zip(Vinv[src], Vinv[dst])]

    t = 0
    while t < min(n, m):
        # pivot: smallest nonzero absolute value in the remaining block
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if S[i][j] and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            done = True
            for i in range(t + 1, n):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    addmul_row(i, t, -q)
                    if S[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, m):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    addmul_col(j, t, -q)
                    if S[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # divisibility fix-up: fold any non-multiple into column t and redo
        piv = S[t][t]
        bad = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if S[i][j] % piv:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            addmul_row(t, bad, 1)
            continue
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
        t += 1
    return S, V, Vinv


def smith_mod(vectors, m, h):
    """Smith data (d, V, Vinv) of the subgroup M of (Z/m)^h generated by
    the vectors: the SNF of the vectors stacked on m I_h.

    Every d_i divides m. M is the direct sum of the <d_i Vinv_i> (rows of
    Vinv), of orders m / d_i; v in M has coordinates (v V)_i / d_i. The
    quotient (Z/m)^h / M is the sum of the Z/d_i, with coset
    representatives sum_i t_i Vinv_i, 0 <= t_i < d_i.
    """
    rows = [[int(x) % m for x in v] for v in vectors]
    rows += [[m if i == j else 0 for j in range(h)] for i in range(h)]
    S, V, Vinv = smith_normal_form(rows)
    return [S[i][i] for i in range(h)], V, Vinv


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
        assert self.orders is None, "dim is a field-case notion; use order()"
        return len(self.vectors)

    def order(self):
        """Cardinality of the spanned subgroup."""
        if self.orders is None:
            return self.ring.q ** len(self.vectors)
        n = 1
        for o in self.orders:
            n *= o
        return n

    def __repr__(self):
        if self.orders is None:
            return f"SubspaceBasis(dim {len(self.vectors)} of {self.h})"
        return f"SubspaceBasis(orders {self.orders} in rank {self.h})"


def span_field(vectors, fs, h):
    rows = [v for v in vectors if any(not fs.is_zero(x) for x in v)]
    return SubspaceBasis(fs, h, echelon(rows, fs))


def span_mod(vectors, ring, h):
    """Canonical generators and cyclic orders of the subgroup of (Z/m)^h
    generated by the given vectors."""
    m = ring.m
    d, _, Vinv = smith_mod(vectors, m, h)
    gens = [tuple(di * x % m for x in row) for di, row in zip(d, Vinv) if di != m]
    return SubspaceBasis(ring, h, gens, [m // di for di in d if di != m])


def kernel_mod(C, ring):
    """Generators and orders of {x in (Z/m)^n : x C = 0 mod m}.

    With S = U C^T V, x C = 0 iff y = V^{-1} x^T has d_i y_i = 0 mod m, so
    the generators are the columns of V, column i scaled by m / gcd(d_i, m);
    d_i = 0 (or i past the diagonal) leaves y_i free, of order m."""
    m = ring.m
    n = len(C)
    if n == 0:
        return [], []
    S, V, _ = smith_normal_form([list(col) for col in zip(*C)])
    gens, orders = [], []
    for i in range(n):
        g = gcd(S[i][i], m) if i < len(S) else m
        if g == 1:
            continue
        step = m // g
        gens.append(tuple(step * row[i] % m for row in V))
        orders.append(g)
    return gens, orders


# ---------------------------------------------------------------------------
# validation


def validate(table):
    """Raise AntisymmetryViolation / JacobiViolation / NotNilpotent unless
    the table is a valid nilpotent Lie ring."""
    R = table.ring
    h = table.h
    # antisymmetry is structural (storage is i < j with the sign folded in);
    # re-check the stored half for reduced coefficients
    for (i, j), row in table.lam.items():
        for k, c in row.items():
            if R.is_zero(c):
                raise AntisymmetryViolation(i, j, k)
    # Jacobi: [[ei,ej],el] + [[ej,el],ei] + [[el,ei],ej] = 0
    for i in range(h):
        for j in range(i + 1, h):
            rij = table.bracket_basis(i, j)
            for l in range(j + 1, h):
                rjl = table.bracket_basis(j, l)
                rli = table.bracket_basis(l, i)
                if not (rij or rjl or rli):
                    continue
                acc = {}
                for row, t in ((rij, l), (rjl, i), (rli, j)):
                    for mvar, c in row.items():
                        for k, lamk in table.bracket_basis(mvar, t).items():
                            acc[k] = R.add(acc.get(k, R.zero()), R.mul(c, lamk))
                if any(not R.is_zero(v) for v in acc.values()):
                    raise JacobiViolation(i, j, l)
    lower_central_series(table)  # raises NotNilpotent if it stabilizes


def derived(table):
    """g' = span of all [e_i, e_j]."""
    h, R = table.h, table.ring
    vecs = []
    for (i, j), row in table.lam.items():
        v = [R.zero()] * h
        for k, c in row.items():
            v[k] = c
        vecs.append(tuple(v))
    if is_field(R):
        return span_field(vecs, R, h)
    return span_mod(vecs, R, h)


def lower_central_series(table):
    """(series, c) with series = [gamma_1, ..., gamma_{c+1}], last one zero."""
    h, R = table.h, table.ring
    if is_field(R):
        full = span_field([table.basis_vector(i) for i in range(h)], R, h)
    else:
        full = span_mod([table.basis_vector(i) for i in range(h)], R, h)
    series = [full]
    while True:
        cur = series[-1]
        if cur.order() == 1:
            break
        nxt_gens = []
        for g in cur.vectors:
            for j in range(h):
                v = table.bracket(g, table.basis_vector(j))
                if any(not R.is_zero(x) for x in v):
                    nxt_gens.append(v)
        nxt = (span_field(nxt_gens, R, h) if is_field(R)
               else span_mod(nxt_gens, R, h))
        if nxt.order() == cur.order():
            raise NotNilpotent(f"lower central series stabilizes at order {cur.order()}")
        series.append(nxt)
    c = len(series) - 1
    if c == 0:
        # zero algebra: treat as class 1 with gamma_2 = 0
        series.append(full)
        c = 1
    return series, c


def nilpotency_class(table):
    return lower_central_series(table)[1]


def centre(table):
    """z = {x : [e_i, x] = 0 for all i}, via the stacked adjoint matrix."""
    h, R = table.h, table.ring
    # column block i holds the coordinates of [e_i, x]; row index is the
    # coordinate of x
    C = [[R.zero()] * (h * h) for _ in range(h)]
    for i in range(h):
        for l in range(h):
            for k, c in table.bracket_basis(i, l).items():
                C[l][i * h + k] = c
    if is_field(R):
        return _nullspace_field(C, R, h)
    gens, orders = kernel_mod(C, R)
    # renormalize through span_mod for canonical generators
    return span_mod(gens, R, h)


def _nullspace_field(C, fs, h):
    """{x : x C = 0} for an h x w matrix C over a field."""
    w = len(C[0]) if C else 0
    # row-reduce the augmented [C | I] and read off zero rows of the C part
    aug = [list(C[i]) + [fs.one() if t == i else fs.zero() for t in range(h)]
           for i in range(h)]
    ech = echelon(aug, fs)
    null = []
    for row in ech:
        if all(fs.is_zero(x) for x in row[:w]):
            null.append(tuple(row[w:]))
    # echelonize the coefficient part for a canonical answer
    return span_field(null, fs, h)


class AdaptedBasis:
    """Result of adapt_basis: rows of change_of_basis are the new basis
    vectors in old coordinates; a = dim g/z, b = dim g'."""

    def __init__(self, change_of_basis, a, b):
        self.change_of_basis = change_of_basis
        self.a = a
        self.b = b

    def __repr__(self):
        return f"AdaptedBasis(a={self.a}, b={self.b})"


def adapt_basis(table):
    """Reorder/recombine the basis so positions 0..a-1 have linearly
    independent residues mod z and the last b positions are a basis of g'.

    Field coefficients only. Returns (AdaptedBasis, transformed LieRing).
    The two windows overlap in exactly max(0, a + b - h) positions, which
    hold derived-algebra vectors of nonzero residue.
    """
    fs = table.ring
    if not is_field(fs):
        raise ValueError("adapt_basis requires a field table")
    h = table.h
    zb = centre(table).vectors
    db = derived(table).vectors
    zdim, b = len(zb), len(db)
    a = h - zdim
    o = max(0, b - zdim)

    resbasis = list(zb)  # residue test: independence modulo z

    def res_independent(v, extra):
        return not in_span(resbasis + extra, v, fs)

    # D1: o derived vectors with independent residues
    D1, D1res = [], []
    for v in db:
        if len(D1) == o:
            break
        if res_independent(v, D1res):
            D1.append(v)
            D1res.append(v)
    assert len(D1) == o
    D2 = [v for v in db if v not in D1]

    # Zfill: extend span(g') inside z
    Zfill = []
    room = max(zdim - b, 0)
    for zvec in zb:
        if len(Zfill) == room:
            break
        if not in_span(db + Zfill, zvec, fs):
            Zfill.append(zvec)
    assert len(Zfill) == room

    # H: complete both the residue basis and the full basis; the pool of
    # standard vectors and pairwise sums always contains a valid choice
    chosen = D1 + D2 + Zfill
    H, Hres = [], []
    pool = [table.basis_vector(i) for i in range(h)]
    pool += [
        tuple(fs.add(x, y) for x, y in zip(pool[i], pool[j]))
        for i in range(h)
        for j in range(i + 1, h)
    ]
    for v in pool:
        if len(H) == a - o:
            break
        if res_independent(v, D1res + Hres) and not in_span(chosen + H, v, fs):
            H.append(v)
            Hres.append(v)
    assert len(H) == a - o, "basis completion failed"

    L = H + D1 + Zfill + D2
    assert len(L) == h
    P = [list(v) for v in L]
    Pinv = invert_matrix(P, fs)

    # transform the structure constants: [L_i, L_j] in L-coordinates
    new_brackets = {}
    for i in range(h):
        for j in range(i + 1, h):
            v = table.bracket(L[i], L[j])
            if all(fs.is_zero(x) for x in v):
                continue
            w = _matvec(Pinv, v, fs)
            row = {k: c for k, c in enumerate(w) if not fs.is_zero(c)}
            if row:
                new_brackets[(i, j)] = row
    name = table.name + " (adapted)" if table.name else ""
    return AdaptedBasis([tuple(r) for r in P], a, b), LieRing(fs, h, new_brackets, name)


def _matvec(rows_of_inv, v, fs):
    """v expressed in the new basis: w = v . P^{-1} (rows_of_inv = P^{-1})."""
    h = len(v)
    w = [fs.zero()] * h
    for i in range(h):
        if fs.is_zero(v[i]):
            continue
        for j in range(h):
            w[j] = fs.add(w[j], fs.mul(v[i], rows_of_inv[i][j]))
    return w


def is_adapted(table, a, b):
    """Check the two window conditions directly."""
    fs = table.ring
    if not is_field(fs):
        return False
    h = table.h
    zb = centre(table).vectors
    db = derived(table).vectors
    if h - len(zb) != a or len(db) != b:
        return False
    # front window: residues of e_0..e_{a-1} independent mod z
    front = [table.basis_vector(i) for i in range(a)]
    if len(echelon(list(zb) + front, fs)) != len(zb) + a:
        return False
    # tail window: e_{h-b}..e_{h-1} spans g'
    tail = [table.basis_vector(i) for i in range(h - b, h)]
    return all(in_span(db, t, fs) for t in tail)


def base_change(table, m):
    """Reinterpret a GF(p^f) table over GF(p^{f m}); the lambda tensor is
    carried over entrywise. Constants must lie in the prime subfield."""
    fs = table.ring
    if not is_field(fs):
        raise ValueError("base_change requires a field table")
    if m == 1:
        return table
    from .field import make_field

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
