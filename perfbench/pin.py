"""Recompute perfbench/reference.json: one pinned (cc, ch, k) per table.

Each value comes from a route that shares no counting code with the route
the benchmark times, and the file records which:

  closed       freenil closed forms for f(r, c) over GF(q) (Heisenberg is
               f(2,2)); class vector by layer bookkeeping, character vector
               by char_vector_class2 or the pinned fixture polynomials
  quadric      catalog._quadric_expected
  pfaffian     catalog.pfaffian_case_vectors (projective census + formula)
  heis-zpe     the Heisenberg ring over Z/p^e by hand: an element x has
               |im ad_x| = p^(e - v(x)), v the least valuation of x1, x2;
               a character of g' of order p^i has radical of index p^(2i)
  oracle       lazard.conjugacy_census / coadjoint_census, run only when
               |G| is within the oracle's default budget

Closed forms are keyed by exponents of q = p^f; the package's class and
character vectors are keyed by exponents of p, so closed forms are re-keyed
(i -> i f) before they are pinned. Every value is also checked against the
oracle when |G| is within its budget.

The file also pins each table's logical point count per command, which
depends only on the table: q^a + q^b for `vectors` (a = codim of the
centre, b = dim of the derived ring), |g/z| + |g'| for the dual route and
|G| for `verify`.

    PYTHONPATH=src:perfbench python3 perfbench/pin.py
"""

import json
import os
import sys

import tables

HERE = os.path.dirname(os.path.abspath(__file__))


def _rekey(vec, f):
    return {i * f: n for i, n in vec.items()}


def _heis_zpe(p, e):
    cc = {0: p**e}
    ch = {0: p ** (2 * e)}
    for i in range(1, e + 1):
        cc[i] = p ** (e + i) - p ** (e + i - 2)
        ch[i] = p ** (2 * e - i) - p ** (2 * e - i - 1)
    return cc, ch


def independent(constructor, args, table):
    """(route, cc, ch) from a route other than the timed one, or None."""
    import pgc
    from pgc.catalog import _quadric_expected

    if constructor in ("free", "heis_field"):
        if constructor == "free":
            r, c, p, f = args
        else:
            (r, c), (p, f) = (2, 2), args
        q = p**f
        cc = pgc.class_vector_closed(r, c, q).entries
        if c == 2:
            ch = pgc.char_vector_class2(r, q).entries
        else:
            ch = pgc.fixture_vectors(r, c, q).entries
        return "closed", _rekey(cc, f), _rekey(ch, f)
    if constructor == "quadric":
        exp = _quadric_expected(*args)
        f = table.ring.f
        return "quadric", _rekey(exp["cc"].entries, f), _rekey(exp["ch"].entries, f)
    if constructor == "boston_isaacs":
        cc, ch, _, _ = pgc.pfaffian_case_vectors(table)
        return "pfaffian", cc.entries, ch.entries
    if constructor == "heis_mod":
        return ("heis-zpe",) + _heis_zpe(*args)
    return None


def points(table):
    import pgc

    R = table.ring
    z, d = pgc.centre(table), pgc.derived(table)
    out = {"verify": tables.order(table)}
    if pgc.is_field(R):
        out["matrix"] = R.q ** (table.h - z.dim) + R.q ** d.dim
    if not pgc.is_field(R) or R.f == 1:
        out["dual"] = tables.order(table) // z.order() + d.order()
    return out


def pin():
    import pgc

    ref = {}
    for entries in tables.WORKLOADS.values():
        for key, _, constructor, args in entries:
            if key in ref:
                continue
            table = tables.build(constructor, args)
            pgc.validate(table)
            row = independent(constructor, args, table)
            checked = []
            if tables.order(table) <= pgc.DEFAULT_ORACLE_BUDGET:
                occ = pgc.conjugacy_census(table).entries
                och = pgc.coadjoint_census(table).entries
                if row is None:
                    row = ("oracle", occ, och)
                elif (occ, och) != (row[1], row[2]):
                    raise SystemExit(f"{key}: {row[0]} disagrees with oracle")
                else:
                    checked.append("oracle")
            if row is None:
                raise SystemExit(f"{key}: no independent route within budget")
            route, cc, ch = row
            k = sum(cc.values())
            if k != sum(ch.values()):
                raise SystemExit(f"{key}: class and character totals differ")
            ref[key] = {
                "cc": {str(i): n for i, n in sorted(cc.items())},
                "ch": {str(i): n for i, n in sorted(ch.items())},
                "k": k,
                "route": route,
                "checked_by": checked,
                "points": points(table),
            }
            print(key, route, checked, k, file=sys.stderr, flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    pin()
