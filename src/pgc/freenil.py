"""Free nilpotent Lie algebras f_{r,c}: Witt dimensions, Hall bases,
structure constants by collection, and closed-form class/character data.

Bracket convention: a basic commutator is [later, earlier] with coefficient
+1, e.g. the weight-2 element on generators y < x is [x, y], displayed
"xy". Left-normed chains concatenate generator names; genuinely nested
products are parenthesized, e.g. "(xyy)(xy)".
"""

from __future__ import annotations

from .field import factorize, prime_power
from .liecore import LieRing
from .enumctr import ClassTooLarge, CountVector, _exact_div


class ExceptionalCase(ValueError):
    pass


class UnknownFixture(KeyError):
    pass


def _mobius(n):
    fac = factorize(n)
    return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)


def witt(r, i):
    """W_r(i) = (1/i) sum_{d | i} mu(d) r^{i/d}; dimension of the weight-i
    layer of the free Lie algebra on r generators."""
    if r < 2 or i < 1:
        raise ValueError(f"need r >= 2 generators and weight >= 1, got r = {r}, {i}")
    s = sum(_mobius(d) * r ** (i // d) for d in range(1, i + 1) if i % d == 0)
    q, rem = divmod(s, i)
    assert rem == 0
    return q


def free_dimension(r, c):
    return sum(witt(r, i) for i in range(1, c + 1))


def n_bound(r, c):
    """Largest exponent n with character degrees 1, q, ..., q^n (c != 3 or
    r != 2; see char_degrees_closed for the exceptional pair)."""
    if c % 2 == 1:
        m = (c - 1) // 2
        return sum(witt(r, i) for i in range(1, m + 1))
    m = c // 2
    return sum(witt(r, i) for i in range(1, m)) + witt(r, m) // 2


def k_exponent(r, c, i):
    """Class-size exponent of elements of weight i: classes in layer i have
    size q^{k(r,c,i)}."""
    if not 1 <= i <= c:
        raise ValueError(f"weight i = {i} outside 1..c = {c}")
    delta = 1 if 2 * i < c + 1 else 0
    return -delta + sum(witt(r, l) for l in range(1, c - i + 1))


def N_exponent(r, c):
    """Growth exponent of the top-degree character count:
    N(r,c) = dim f_{r,c} - 2 n(r,c). The pair (2,3) is special: its top
    degree is q (not q^{n(2,3)}), so the effective value dim - 2 = 3 is
    returned there."""
    if (r, c) == (2, 3):
        return free_dimension(2, 3) - 2
    return free_dimension(r, c) - 2 * n_bound(r, c)


# ---------------------------------------------------------------------------
# Hall bases and collection


class BasicCommutator:
    """index: global position; parents: (left, right) indices or None for a
    generator; display: left-normed string form."""

    __slots__ = ("index", "weight", "parents", "display")

    def __init__(self, index, weight, parents, display):
        self.index = index
        self.weight = weight
        self.parents = parents
        self.display = display

    def __repr__(self):
        return f"<{self.display}:{self.index}>"


class HallBasis:
    def __init__(self, r, c, layers, elements, pair_index):
        self.r = r
        self.c = c
        self.layers = layers  # layers[i-1] = list of weight-i elements
        self.elements = elements  # flat, in global order
        self.pair_index = pair_index  # (left, right) -> global index
        self._memo = {}

    @property
    def dimension(self):
        return len(self.elements)

    def display(self, i):
        return self.elements[i].display


def _check_free_parameters(r, c):
    """ValueError unless f(r, c) exists: r >= 2 generators, class c >= 1."""
    if r < 2 or c < 1:
        raise ValueError(f"need r >= 2 generators and class >= 1, got r = {r}, c = {c}")


def hall_basis(r, c):
    """Hall basis of f_{r,c}: basic commutators [u, v] with u > v and, for
    composite u = [u1, u2], u2 <= v. Order refines weight; within a layer,
    lexicographic by (left-parent index, right-parent index). Generators
    come first, e_1 < ... < e_r."""
    _check_free_parameters(r, c)
    names = ("y", "x") if r == 2 else tuple(f"x{i+1}" for i in range(r))
    elements = [BasicCommutator(i, 1, None, names[i]) for i in range(r)]
    layers, pair_index = [list(elements)], {}
    for w in range(2, c + 1):
        cands = sorted((u.index, v.index) for u in elements for v in elements
                       if v.weight == w - u.weight and u.index > v.index
                       and (u.parents is None or u.parents[1] <= v.index))
        layer = []
        for (ui, vi) in cands:
            u, v = elements[ui], elements[vi]
            disp = (u.display + v.display if v.parents is None
                    else f"({u.display})({v.display})")
            e = BasicCommutator(len(elements), w, (ui, vi), disp)
            elements.append(e)
            layer.append(e)
            pair_index[(ui, vi)] = e.index
        layers.append(layer)
        assert len(layer) == witt(r, w), (w, len(layer))
    return HallBasis(r, c, layers, elements, pair_index)


def collect(u, v, basis):
    """[b_u, b_v] as {index: integer coefficient} in the Hall basis,
    truncating weights above c. Jacobi rewriting for non-basic pairs."""
    if u == v:
        return {}
    key = (u, v)
    memo = basis._memo
    if key in memo:
        return memo[key]
    eu, ev = basis.elements[u], basis.elements[v]
    if eu.weight + ev.weight > basis.c:
        result = {}
    elif u < v:
        result = {k: -c for k, c in collect(v, u, basis).items()}
    elif eu.parents is None or eu.parents[1] <= v:
        result = {basis.pair_index[(u, v)]: 1}
    else:
        # u = [u1, u2] with u2 > v: [u, v] = [[u1,v],u2] + [u1,[u2,v]]
        u1, u2 = eu.parents
        acc = {}
        for w, cw in collect(u1, v, basis).items():
            for z, cz in collect(w, u2, basis).items():
                acc[z] = acc.get(z, 0) + cw * cz
        for w, cw in collect(u2, v, basis).items():
            for z, cz in collect(u1, w, basis).items():
                acc[z] = acc.get(z, 0) + cw * cz
        result = {k: c for k, c in acc.items() if c}
    memo[key] = result
    return result


def free_table(r, c, ring):
    """Structure constants of f_{r,c} over the given coefficient ring.
    Collection happens over Z (integer coefficients, no denominators), so
    reduction is valid for any p, even p <= c; rank censuses on such tables
    are still meaningful polynomial counts although no group of class c
    exists at that characteristic."""
    basis = hall_basis(r, c)
    h = basis.dimension
    brackets = {(i, j): dict(row) for i in range(h) for j in range(i)
                if (row := collect(i, j, basis))}
    table = LieRing(ring, h, brackets, f"f({r},{c})")
    table.hall = basis
    return table


# ---------------------------------------------------------------------------
# closed forms


def class_vector_closed(r, c, q):
    """Class vector of F_{r,c}(F_q) by layer bookkeeping: the centre
    contributes cc_0 = q^{W_r(c)}; weight-i elements (i < c) lie in classes
    of size q^{k(r,c,i)}. Keys are exponents of q."""
    _check_free_parameters(r, c)
    p = prime_power(q)[0]
    if p <= c:
        raise ClassTooLarge(f"char {p} <= c = {c}")
    entries = {0: q ** witt(r, c)}
    for i in range(1, c):
        j = k_exponent(r, c, i)
        e = sum(witt(r, l) for l in range(i + 1, c + 1)) - j
        assert e >= 0
        n = (q ** witt(r, i) - 1) * q**e
        entries[j] = entries.get(j, 0) + n
    return CountVector(entries)


def class_number_closed(r, c, q):
    return class_vector_closed(r, c, q).total()


def char_degrees_closed(r, c):
    """{0, 1, ..., n(r,c)}: the character degree exponents of F_{r,c}(F_q).
    The pair (2,3) is exceptional (degrees stop at q) and is served by the
    fixture table instead."""
    if (r, c) == (2, 3):
        raise ExceptionalCase("(2,3) has degrees {1, q}; use fixture_vectors")
    return set(range(n_bound(r, c) + 1))


def char_vector_class2(r, q):
    """Character vector of F_{r,2}(F_q): ch_i = q^{r-2i} nu_i with nu_i the
    number of rank-2i skew r x r matrices over F_q. Keys are exponents of q."""
    entries = {}
    for i in range(r // 2 + 1):
        num = q ** (i * (i - 1))
        for j in range(2 * i):
            num *= q ** (r - j) - 1
        den = 1
        for j in range(i):
            den *= q ** (2 * (i - j)) - 1
        nu = _exact_div(num, den)
        entries[i] = nu * q ** (r - 2 * i)
    return CountVector(entries)


def char_count_degree_q(r, c, q):
    """Number of degree-q characters of F_{r,c}(F_q) for c > 2."""
    if c <= 2:
        raise ValueError("formula applies to class c > 2 only")
    p = prime_power(q)[0]
    if p <= c:
        raise ClassTooLarge(f"char {p} <= c = {c}")
    e = (r - 1) * (c - 1)
    num = q ** (r - 2) * (q**r - 1) * (q ** (e + 1) + q**e - q**r - 1)
    return _exact_div(num, q**2 - 1)


_FIXTURES = {
    (2, 3): lambda q: {0: q**2, 1: q**3 - 1},
    (2, 4): lambda q: {
        0: q**2,
        1: q**4 + q**3 - q**2 - 1,
        2: q**4 - q**2 - q + 1,
    },
    (3, 3): lambda q: {
        0: q**3,
        1: q * (q**3 - 1) * (q**3 + q**2 + 1),
        2: q * (q**3 - 1) * (q**5 + q**4 - 1),
        3: q**4 * (q - 1) * (q**3 - q - 1),
    },
    (2, 5): lambda q: {
        0: q**2,
        1: (q - 1) * (q**4 + 2 * q**3 + 2 * q**2 + q + 1),
        2: (q - 1) * (q**7 + 2 * q**6 + 3 * q**5 + 2 * q**4 + q**3 - q - 1),
        3: q**2 * (q**2 - 1) * (q**4 - q - 1),
    },
}


def fixture_vectors(r, c, q):
    """Pinned character vectors ch(F_{r,c}(F_q)) for the four worked pairs
    (2,3), (2,4), (3,3), (2,5). Keys are exponents of q. The entries are
    plain polynomial evaluations, so any q is accepted; only q with
    char > c carries the group interpretation."""
    if (r, c) not in _FIXTURES:
        raise UnknownFixture((r, c))
    return CountVector(_FIXTURES[(r, c)](q))


def char_vector_closed(r, c, q):
    """ch(F_{r,c}(F_q)) in closed form, keyed by exponents of q:
    char_vector_class2 for c = 2, else fixture_vectors (UnknownFixture off
    its four pairs)."""
    _check_free_parameters(r, c)
    if c == 2:
        return char_vector_class2(r, q)
    return fixture_vectors(r, c, q)
