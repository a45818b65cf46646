"""Command-line surface: the `.lie` file format and the `pgc` tool.

File grammar (line-oriented, `#` starts a comment):

    ring p=<prime> [f=<deg>] [e=<exp>]     f and e mutually exclusive; default f=1
    dim <h>
    name <string>
    bracket <i> <j> : <coeff> <k> [<coeff> <k> ...]

Bracket lines are 1-based and mean [e_i, e_j] = sum coeff * e_k; each
unordered pair may appear at most once (a second occurrence is rejected
even when numerically consistent).  Coefficients are integers, or
`(a0,a1,...)` tuples of integers when f > 1.

Exit codes: 0 success (for `verify`: all paths agree), 1 verification
mismatch, 2 invalid input, 3 budget exceeded.
"""

import argparse
import json
import re
import sys
from contextlib import contextmanager
from functools import lru_cache

from .field import make_field, is_prime
from .liecore import (ModRing, LieRing, is_field, validate, centre, derived,
                      lower_central_series)
from .commat import BudgetExceeded, build_commutator_matrices
from .enumctr import DEFAULT_BUDGET, ClassTooLarge, vectors_theoremB, vectors_dual, poly_fit
from .freenil import (free_table, class_vector_closed, class_number_closed,
                      char_vector_closed, UnknownFixture)
from .lazard import (DEFAULT_ORACLE_BUDGET, conjugacy_census, coadjoint_census,
                     NonPowerClass, NonSquareOrbit)
from .catalog import (CATALOG_NAMES, FAMILIES, HypothesesFailed, build_entry,
                      free_closed_vectors, known_vectors)


class LieSyntaxError(SyntaxError):
    """Malformed `.lie` line; .line holds the 1-based line number."""

    def __init__(self, line, why):
        super().__init__(f"line {line}: {why}")
        self.line = line


class DuplicateBracket(ValueError):
    """The unordered pair (i, j) was given twice (1-based)."""

    def __init__(self, i, j):
        super().__init__(f"bracket pair ({i},{j}) given more than once")
        self.pair = (i, j)


class BadCoefficient(ValueError):
    pass


# ---------------------------------------------------------------------------
# .lie parsing / emission


def _parse_coeff(tok, ring, line):
    if tok.startswith("("):
        if not tok.endswith(")"):
            raise BadCoefficient(f"line {line}: unterminated tuple {tok!r}")
        if not (is_field(ring) and ring.f > 1):
            raise BadCoefficient(
                f"line {line}: tuple coefficient {tok!r} needs f > 1")
        body = tok[1:-1]
        try:
            digits = [int(s) for s in body.split(",")] if body else []
        except ValueError:
            raise BadCoefficient(f"line {line}: bad tuple {tok!r}")
        if not 0 < len(digits) <= ring.f:
            raise BadCoefficient(
                f"line {line}: tuple {tok!r} has {len(digits)} entries, "
                f"field degree is {ring.f}")
        return tuple(digits)
    try:
        return int(tok)
    except ValueError:
        raise BadCoefficient(f"line {line}: {tok!r} is not a coefficient")


def parse_lie(text):
    """Parse `.lie` text into a LieRing.  Raises LieSyntaxError,
    DuplicateBracket, or BadCoefficient."""
    ring = None
    dim = None
    name = ""
    brackets = {}
    seen = set()
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head == "ring":
            if ring is not None:
                raise LieSyntaxError(no, "second ring line")
            kv = {}
            for tok in toks[1:]:
                m = re.fullmatch(r"(p|f|e)=(\d+)", tok)
                if m is None or m.group(1) in kv:
                    raise LieSyntaxError(no, f"bad ring parameter {tok!r}")
                kv[m.group(1)] = int(m.group(2))
            if "p" not in kv:
                raise LieSyntaxError(no, "ring needs p=<prime>")
            if "f" in kv and "e" in kv:
                raise LieSyntaxError(no, "f and e are mutually exclusive")
            p = kv["p"]
            if not is_prime(p):
                raise LieSyntaxError(no, f"p = {p} is not prime")
            if "e" in kv:
                if kv["e"] < 1:
                    raise LieSyntaxError(no, "e must be >= 1")
                ring = ModRing(p, kv["e"])
            else:
                f = kv.get("f", 1)
                if f < 1:
                    raise LieSyntaxError(no, "f must be >= 1")
                ring = make_field(p, f)
        elif head == "dim":
            if dim is not None:
                raise LieSyntaxError(no, "second dim line")
            if len(toks) != 2 or not toks[1].isdigit() or int(toks[1]) < 1:
                raise LieSyntaxError(no, "dim needs one positive integer")
            dim = int(toks[1])
        elif head == "name":
            name = line[len("name"):].strip()
        elif head == "bracket":
            if ring is None or dim is None:
                raise LieSyntaxError(no, "bracket before ring/dim header")
            if len(toks) < 4 or toks[3] != ":":
                raise LieSyntaxError(no, "expected `bracket <i> <j> : ...`")
            try:
                i, j = int(toks[1]), int(toks[2])
            except ValueError:
                raise LieSyntaxError(no, "bracket indices must be integers")
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise LieSyntaxError(no, f"index out of range 1..{dim}")
            if i == j:
                raise LieSyntaxError(no, f"[e_{i}, e_{i}] is identically 0")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DuplicateBracket(i, j)
            seen.add(key)
            rest = toks[4:]
            if not rest or len(rest) % 2:
                raise LieSyntaxError(no, "expected <coeff> <k> pairs")
            row = {}
            for ct, kt in zip(rest[0::2], rest[1::2]):
                c = _parse_coeff(ct, ring, no)
                if not kt.isdigit() or not 1 <= int(kt) <= dim:
                    raise LieSyntaxError(no, f"target {kt!r} out of range")
                k = int(kt) - 1
                if k in row:
                    raise LieSyntaxError(no, f"target e_{kt} repeated")
                row[k] = c
            brackets[(i - 1, j - 1)] = row
        else:
            raise LieSyntaxError(no, f"unknown directive {head!r}")
    if ring is None:
        raise LieSyntaxError(0, "missing ring line")
    if dim is None:
        raise LieSyntaxError(0, "missing dim line")
    return LieRing(ring, dim, brackets, name)


def emit_lie(table):
    """Canonical `.lie` text: name, ring, dim, then brackets with i < j
    ascending and targets ascending.  parse -> emit is the identity on
    this format."""
    out = []
    if table.name:
        out.append(f"name {table.name}")
    r = table.ring
    if is_field(r):
        out.append(f"ring p={r.p}" + (f" f={r.f}" if r.f > 1 else ""))
    else:
        out.append(f"ring p={r.p} e={r.e}")
    out.append(f"dim {table.h}")
    for ij in sorted(table.lam):
        row = table.lam[ij]
        parts = " ".join(
            f"{r.fmt(row[k])} {k + 1}" for k in sorted(row))
        out.append(f"bracket {ij[0] + 1} {ij[1] + 1} : {parts}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# output helpers


def _diag(msg):
    print(f"pgc: error: {msg}", file=sys.stderr)


@contextmanager
def _any_length():
    """Lift the interpreter's limit on int -> str conversion meanwhile,
    so exact integers of any length print; input is parsed under it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@_any_length()
def _render(cc, ch, k, p):
    lines = []
    if cc is not None:
        lines += [f"size {p}^{i} : {n}" for i, n in sorted(cc.items())]
    if ch is not None:
        lines += [f"degree {p}^{i} : {n}" for i, n in sorted(ch.items())]
    lines.append(f"k = {k}")
    return "\n".join(lines)


def _json_obj(name, ring, cc, ch, k, method):
    def vec(v):
        return None if v is None else {str(i): n for i, n in sorted(v.items())}

    return {
        "name": name,
        "p": ring.p,
        "f_or_e": f"f={ring.f}" if is_field(ring) else f"e={ring.e}",
        "class_vector": vec(cc),
        "char_vector": vec(ch),
        "k": k,
        "method": method,
    }


@_any_length()
def _print_json(obj):
    print(json.dumps(obj, separators=(", ", ": ")))


class BadInput(ValueError):
    pass


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_lie(fh.read())
    except OSError as e:
        raise BadInput(str(e))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_field(args):
    fs = make_field(args.p, args.f)
    print(f"GF({fs.q})" + (f" = GF({fs.p}^{fs.f})" if fs.f > 1 else ""))
    if fs.f > 1:
        print("modulus " + _poly_str(fs.modulus, "x"))
    print(f"elements {fs.q}")
    return 0


def _cmd_analyze(args):
    t = _load(args.file)
    validate(t)
    series, c = lower_central_series(t)
    z = centre(t)
    d = derived(t)
    if t.name:
        print(f"name {t.name}")
    print(f"ring {t.ring!r}")
    print(f"dim {t.h}")
    print(f"class {c}")
    if is_field(t.ring):
        print(f"centre dim {z.dim}")
        print(f"derived dim {d.dim}")
    else:
        print(f"centre order {z.order()}")
        print(f"derived order {d.order()}")
    if is_field(t.ring):
        A, B = build_commutator_matrices(t)
        print(f"a = {A.nvars}  b = {B.nvars}")
        print("A(X):")
        print(str(A))
        print("B(Y):")
        print(str(B))
    return 0


def _cmd_vectors(args):
    t = _load(args.file)
    validate(t)
    method = args.method
    if method == "auto":
        method = "matrix" if is_field(t.ring) else "dual"
    if args.threads < 1:
        raise BadInput(f"--threads {args.threads} is below 1")
    if method == "matrix":
        if not is_field(t.ring):
            raise BadInput("matrix method requires field coefficients")
        cc, ch = vectors_theoremB(t, args.budget, args.threads)
    else:
        cc, ch = vectors_dual(t, args.budget, args.threads)
    k = cc.total()
    if args.json:
        _print_json(_json_obj(t.name, t.ring, cc, ch, k, method))
    else:
        print(_render(cc, ch, k, t.ring.p))
    return 0


def _cmd_free(args):
    if not is_prime(args.p):
        raise BadInput(f"p = {args.p} is not prime")
    table = None
    if args.emit or args.enumerate:
        table = free_table(args.r, args.c, make_field(args.p, args.f))
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(emit_lie(table))
        print(f"wrote {args.emit}")
        if not (args.closed_form or args.enumerate):
            return 0
    if args.enumerate:
        cc, ch = vectors_theoremB(table, args.budget)
        k, method = cc.total(), "matrix"
    else:
        cc, ch, k = free_closed_vectors(args.r, args.c, args.p ** args.f)
        method = "closed"
    if args.json:
        ring = table.ring if table else make_field(args.p, args.f)
        _print_json(_json_obj(f"f({args.r},{args.c})", ring, cc, ch, k, method))
    else:
        print(_render(cc, ch, k, args.p))
    return 0


def _cmd_oracle(args):
    t = _load(args.file)
    validate(t)
    both = not (args.classes or args.orbits)
    cc = conjugacy_census(t, args.budget) if args.classes or both else None
    ch = coadjoint_census(t, args.budget) if args.orbits or both else None
    if cc is not None and ch is not None and cc.total() != ch.total():
        print(f"oracle mismatch: {cc.total()} classes vs "
              f"{ch.total()} irreducible characters")
        return 1
    k = (cc or ch).total()
    print(_render(cc, ch, k, t.ring.p))
    return 0


def _cmd_catalog(args):
    params = {key: getattr(args, key) for key in FAMILIES[args.name].params}
    for key, val in params.items():
        if val is None:
            raise BadInput(f"catalog family needs {'--' if len(key) > 1 else '-'}{key}")
    entry = build_entry(args.name, **params)
    print(f"name {entry.table.name}")
    print(f"dim {entry.table.h}")
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(emit_lie(entry.table))
        print(f"wrote {args.emit}")
        return 0
    exp = entry.expected
    if "cc" in exp:
        print(_render(exp["cc"], exp["ch"], exp["k"], entry.table.ring.p))
    if "n" in exp:
        print(f"n = {exp['n']}")
    for key in ("cd", "cs"):
        if key in exp:
            print(f"{key} : " + " ".join(map(str, sorted(exp[key]))))
    return 0


@_any_length()
def _poly_str(coeffs, var):
    """The polynomial with the given coefficients, constant term first, in
    the variable var, highest degree first: "q^3 + q^2 - 1"."""
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        mag = abs(c)
        mono = "1" if d == 0 else (var if d == 1 else f"{var}^{d}")
        body = mono if (mag == 1 and d > 0) else (
            str(mag) if d == 0 else f"{mag} {mono}")
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms) if terms else "0"


def _cmd_fit(args):
    try:
        nodes = [int(s) for s in args.at.split(",")]
    except ValueError:
        raise BadInput(f"bad node list {args.at!r}")
    if len(nodes) < 2:
        raise BadInput("need at least two interpolation nodes")
    r, c = args.r, args.c
    if args.target == "k":
        samples = [(q, class_number_closed(r, c, q)) for q in nodes]
        poly = poly_fit(samples, integral=True)
        print(f"k = {_poly_str(poly.coeffs, 'q')}")
        return 0
    closed = class_vector_closed if args.target == "cc" else char_vector_closed
    vecs = {q: closed(r, c, q) for q in nodes}
    for i in sorted({i for v in vecs.values() for i in v.entries}):
        poly = poly_fit([(q, vecs[q].entries.get(i, 0)) for q in nodes], integral=True)
        print(f"{args.target}[{i}] = {_poly_str(poly.coeffs, 'q')}")
    return 0


def _cmd_verify(args):
    t = _load(args.file)
    validate(t)
    rows = []  # (label, CountVector cc or None, CountVector ch or None, k)
    skipped = []

    def attempt(label, fn):
        """fn() gives (cc, ch, k), or (cc, ch) with k the total of cc, else of ch."""
        try:
            cc, ch, *k = fn()
        except BudgetExceeded:
            skipped.append((label, "budget"))
        except (ClassTooLarge, HypothesesFailed) as e:
            skipped.append((label, str(e)))
        else:
            k = k[0] if k else (ch if cc is None else cc).total()
            rows.append((label, cc, ch, k))

    if is_field(t.ring):
        attempt("theoremB", lambda: vectors_theoremB(t, args.budget))
    attempt("dual", lambda: vectors_dual(t, args.budget))
    known = known_vectors(t, args.budget)
    if known:
        attempt(*known)
    attempt("conjugacy", lambda: (conjugacy_census(t, args.oracle_budget), None))
    attempt("coadjoint", lambda: (None, coadjoint_census(t, args.oracle_budget)))

    if not rows:
        _diag("no verification path applies within budget")
        return 3

    mismatches = []
    refs = {}  # kind -> (label, value) of the first path that gave one
    for label, cc, ch, k in rows:
        for kind, v in (("class vectors differ", None if cc is None else cc.entries),
                        ("char vectors differ", None if ch is None else ch.entries),
                        ("k differs", k)):
            if v is None:
                continue
            ref_label, ref = refs.setdefault(kind, (label, v))
            if v != ref:
                mismatches.append(f"{kind}: {ref_label} {ref} vs {label} {v}")

    for label, _, _, k in rows:
        print(f"path {label:<10} k = {k}")
    for label, why in skipped:
        print(f"path {label:<10} skipped ({why})")
    if mismatches:
        for m in mismatches:
            print(f"MISMATCH: {m}")
        return 1
    print(f"verify: {len(rows)} paths agree")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def budget(text):
    """An integer of at least 0; argparse names the type after this function."""
    if (n := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"{n} is below 0")
    return n


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: run() reuses it."""
    census = dict(type=budget, default=DEFAULT_BUDGET,
                  help="most matrices one route's censuses may rank (default %(default)s)")
    oracle = dict(type=budget, default=DEFAULT_ORACLE_BUDGET,
                  help="most group elements the oracle may enumerate (default %(default)s)")
    ap = argparse.ArgumentParser(
        prog="pgc",
        description="conjugacy classes and character degrees of finite "
                    "p-groups from Lie ring structure constants")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("field", help="describe GF(p^f) and its modulus")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-f", type=int, default=1)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("analyze", help="table invariants and the matrices")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("vectors", help="class/character vectors and k")
    p.add_argument("file")
    p.add_argument("--method", choices=("auto", "matrix", "dual"),
                   default="auto")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--budget", **census)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_vectors)

    p = sub.add_parser("free", help="free nilpotent tables and closed forms")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-c", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-f", type=int, default=1)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--closed-form", action="store_true")
    g.add_argument("--enumerate", action="store_true")
    p.add_argument("--emit", metavar="FILE")
    p.add_argument("--budget", **census)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_free)

    p = sub.add_parser("oracle", help="brute-force class/orbit censuses")
    p.add_argument("file")
    p.add_argument("--classes", action="store_true")
    p.add_argument("--orbits", action="store_true")
    p.add_argument("--budget", **oracle)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("catalog", help="worked families from the literature")
    p.add_argument("name", choices=CATALOG_NAMES)
    p.add_argument("--alpha", type=int)
    p.add_argument("-p", type=int)
    p.add_argument("-q", type=int)
    p.add_argument("-I", metavar="I1,I2,...")
    p.add_argument("-l", type=int)
    p.add_argument("-n", type=int)
    p.add_argument("--emit", metavar="FILE")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("fit", help="interpolate closed forms as polynomials in q")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-c", type=int, required=True)
    p.add_argument("--target", choices=("cc", "ch", "k"), required=True)
    p.add_argument("--at", required=True, metavar="q1,q2,...")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="cross-check every applicable method")
    p.add_argument("file")
    p.add_argument("--budget", **census)
    p.add_argument("--oracle-budget", **oracle)
    p.set_defaults(func=_cmd_verify)

    return ap


def run(argv=None):
    """Parse argv and dispatch; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except BudgetExceeded as e:
        _diag(e)
        return 3
    except (LieSyntaxError, UnknownFixture, ValueError) as e:
        _diag(e)
        return 2
    except (NonPowerClass, NonSquareOrbit) as e:
        _diag(e)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
