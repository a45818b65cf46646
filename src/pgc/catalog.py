"""Worked class-2 families: Pfaffian-hypersurface cases and tables with
prescribed class sizes or character degrees.

All constructors list cocentre representatives first and the derived
algebra last, so adapt_basis reads front = 0..a-1 and tail = h-b..h-1 off
the echelon pivots, and A(X), B(Y) come out as the literature writes them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .field import make_field, prime_power
from .liecore import LieRing, is_field
from .commat import build_commutator_matrices, projective_rank_census
from .enumctr import (CountVector, DEFAULT_BUDGET, _exact_div, _point_price, _within,
                      rekey_q_to_p)
from .freenil import (UnknownFixture, char_vector_closed, class_vector_closed,
                      free_dimension)


class ZeroAlpha(ValueError):
    pass


class HypothesesFailed(ValueError):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# constructors


def boston_isaacs_table(alpha, p):
    """The 9-dimensional class-2 algebra g_alpha over F_p: e_1..e_6 span the
    cocentre, f_1..f_3 the derived algebra, with
    [e1,e4]=f1 [e1,e5]=f2 [e1,e6]=alpha f3
    [e2,e4]=f3 [e2,e5]=f1 [e2,e6]=f2
    [e3,e4]=f3              [e3,e6]=f1."""
    if p == 2:
        raise ValueError("p must be odd")
    fs = make_field(p)
    if alpha % p == 0:
        raise ZeroAlpha(f"alpha = {alpha} vanishes mod {p}")
    a = alpha % p
    brackets = {
        (0, 3): {6: 1}, (0, 4): {7: 1}, (0, 5): {8: a},
        (1, 3): {8: 1}, (1, 4): {6: 1}, (1, 5): {7: 1},
        (2, 3): {8: 1}, (2, 5): {6: 1},
    }
    return LieRing(fs, 9, brackets, f"g_alpha({a} mod {p})")


def quadric_table(q):
    """The 8-dimensional class-2 algebra over F_q with [e1,e3]=f1,
    [e1,e4]=f2, [e2,e3]=f3, [e2,e4]=f4; its Pfaffian locus is the quadric
    Y1 Y4 = Y2 Y3, which carries lines, so the Pfaffian case formulas must
    reject it."""
    p, f = prime_power(q)
    fs = make_field(p, f)
    brackets = {(0, 2): {4: 1}, (0, 3): {5: 1}, (1, 2): {6: 1}, (1, 3): {7: 1}}
    return LieRing(fs, 8, brackets, f"quadric({q})")


def isaacs_cd_table(I, p):
    """Class-2 algebra over F_p whose group has character degrees
    {p^i : i in I or i = 0}: basis x_1..x_{2j}, y_i for i in I (j = max I),
    with [x_r, x_{r+i}] = y_i for r in [i]. The commutator matrix B is then
    the sum over i in I of blocks [[0, Y_i Id_i], [-Y_i Id_i, 0]] padded by
    zeros, with rank 2 max{i : y_i != 0}."""
    I = sorted(set(I))
    if not I or I[0] < 1:
        raise ValueError("I must be a nonempty set of positive integers")
    if p == 2:
        raise ValueError("p must be odd")
    fs = make_field(p)
    j = I[-1]
    brackets = {}
    for pos, i in enumerate(I):
        for r in range(i):
            brackets[(r, r + i)] = {2 * j + pos: 1}
    return LieRing(fs, 2 * j + len(I), brackets,
                   f"isaacs_cd({{{','.join(map(str, I))}}}, {p})")


def fm_table(l, n, p):
    """Class-2 algebra over F_p whose group has cd = {1, p^l} and
    cs = {1, p, ..., p^l, p^n}: basis x_1..x_l, xt_1..xt_{l+n-1},
    y_1..y_n with [x_i, xt_j] = y_{j-i+1} for i <= j <= i+n-1."""
    if l < 1 or n < 1:
        raise ValueError("l, n must be >= 1")
    if p == 2:
        raise ValueError("p must be odd")
    fs = make_field(p)
    off = 2 * l + n - 1
    brackets = {}
    for i in range(l):
        for j in range(i, min(i + n, l + n - 1)):
            brackets[(i, l + j)] = {off + (j - i): 1}
    return LieRing(fs, off + n, brackets, f"fm({l},{n},{p})")


# ---------------------------------------------------------------------------
# the Pfaffian case formulas


@dataclass
class PfaffianReport:
    a: int
    b: int
    n: int
    rank_set: set
    line_condition: bool


def pfaffian_case_vectors(table, budget=DEFAULT_BUDGET):
    """(cc, ch, k, report) for a class-2 table whose projective B-rank set
    is {a-2, a} and whose Pfaffian hypersurface contains no line. n counts
    the projective points of rank a-2; the three nonzero entries of each
    vector follow in closed form, keyed by exponents of p. Raises
    HypothesesFailed otherwise, and BudgetExceeded before the projective
    census starts if its points (see enumctr._price) exceed budget."""
    fs = table.ring
    if not is_field(fs):
        raise ValueError("pfaffian_case_vectors requires a field table")
    q, h = fs.q, table.h
    A, B = build_commutator_matrices(table)
    a, b = A.nvars, B.nvars
    _within(budget, "the Pfaffian formula", _point_price(fs, B.codes.shape))
    census, line_ok = projective_rank_census(B)
    n = census.get(a - 2, 0)
    report = PfaffianReport(a=a, b=b, n=n, rank_set=set(census),
                            line_condition=line_ok)
    if a <= 2:
        raise HypothesesFailed(f"a = {a} <= 2")
    if set(census) != {a - 2, a}:
        raise HypothesesFailed(
            f"projective rank set {sorted(census)} != {{{a - 2}, {a}}}")
    if not line_ok:
        raise HypothesesFailed(
            f"a projective line in P^{b - 1}(F_{q}) avoids rank {a}")
    zord = q ** (h - a)
    gord = q ** (h - b)
    cc = {
        0: zord,
        b - 1: _exact_div(zord * n * (q**2 - 1), q ** (b - 1)),
        b: _exact_div(zord * (q**a - 1 - n * (q**2 - 1)), q**b),
    }
    ch = {
        0: gord,
        a // 2 - 1: _exact_div(gord * n * (q - 1), q ** (a - 2)),
        a // 2: _exact_div(gord * (q**b - 1 - n * (q - 1)), q**a),
    }
    k = (q ** (h - a) + q ** (h - b)
         + q ** (h - a - b) * (n * (q**2 - 1) * (q - 1) - 1))
    return rekey_q_to_p(cc, q), rekey_q_to_p(ch, q), k, report


# ---------------------------------------------------------------------------
# entries for the command line


@dataclass
class CatalogEntry:
    name: str
    parameters: dict
    table: LieRing
    expected: dict = field(default_factory=dict)


def _quadric_expected(q):
    """Closed forms of quadric(q), keyed by exponents of q."""
    cc = {0: q**4, 2: 2 * (q**2 - 1) * q**2, 3: q * (q**2 - 1) ** 2}
    ch = {0: q**4, 1: q**2 * (q - 1) * (q + 1) ** 2,
          2: q**4 - 1 - (q + 1) ** 2 * (q - 1)}
    return {"cc": CountVector(cc), "ch": CountVector(ch),
            "k": sum(cc.values())}


def build_entry(name, **params):
    """CatalogEntry by family name: boston_isaacs(alpha, p), quadric(q),
    isaacs_cd(I, p), fm(l, n, p)."""
    if name == "boston_isaacs":
        alpha, p = params["alpha"], params["p"]
        table = boston_isaacs_table(alpha, p)
        cc, ch, k, report = pfaffian_case_vectors(table)
        return CatalogEntry(name, {"alpha": alpha, "p": p}, table,
                            {"cc": cc, "ch": ch, "k": k, "n": report.n})
    if name == "quadric":
        q = params["q"]
        exp = _quadric_expected(q)
        exp.update(cc=rekey_q_to_p(exp["cc"], q), ch=rekey_q_to_p(exp["ch"], q))
        return CatalogEntry(name, {"q": q}, quadric_table(q), exp)
    if name == "isaacs_cd":
        I, p = sorted(set(params["I"])), params["p"]
        table = isaacs_cd_table(I, p)
        return CatalogEntry(name, {"I": I, "p": p}, table,
                            {"cd": {p**i for i in [0] + I}})
    if name == "fm":
        l, n, p = params["l"], params["n"], params["p"]
        table = fm_table(l, n, p)
        return CatalogEntry(name, {"l": l, "n": n, "p": p}, table,
                            {"cd": {1, p**l},
                             "cs": {p**i for i in range(l + 1)} | {p**n}})
    raise ValueError(f"unknown catalog family {name!r}")


CATALOG_NAMES = ("boston_isaacs", "quadric", "isaacs_cd", "fm")


def free_closed_vectors(r, c, q):
    """(cc, ch, k) of f(r, c) over GF(q) in closed form, keyed by exponents
    of p; ch is None where neither a closed form nor a fixture is known."""
    cc = class_vector_closed(r, c, q)
    try:
        ch = rekey_q_to_p(char_vector_closed(r, c, q), q)
    except UnknownFixture:
        ch = None
    return rekey_q_to_p(cc, q), ch, cc.total()


def known_vectors(table, budget=DEFAULT_BUDGET):
    """(label, path) for a field table named f(r,c), quadric(q) or
    g_alpha(a mod p), else None. path() gives (cc, ch, k) keyed by
    exponents of p ("closed" in closed form, "formula" by
    pfaffian_case_vectors within budget) or raises HypothesesFailed, for
    f(r,c) also when f(r,c) has more dimensions than the table."""
    if not is_field(table.ring):
        return None
    q = table.ring.q
    m = re.fullmatch(r"f\((\d+),(\d+)\)", table.name)
    if m:
        r, c = int(m.group(1)), int(m.group(2))

        def free():
            if r < 2 or c < 1:
                raise HypothesesFailed(f"f({r},{c}) needs r >= 2 and c >= 1")
            d = free_dimension(r, c)
            if d > table.h:
                raise HypothesesFailed(f"f({r},{c}) has dimension {d}, the table {table.h}")
            return free_closed_vectors(r, c, q)

        return "closed", free
    if re.fullmatch(r"quadric\(\d+\)", table.name):
        exp = build_entry("quadric", q=q).expected
        return "closed", lambda: (exp["cc"], exp["ch"], exp["k"])
    if re.fullmatch(r"g_alpha\(\d+ mod \d+\)", table.name):
        return "formula", lambda: pfaffian_case_vectors(table, budget)[:3]
    return None
