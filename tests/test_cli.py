"""The `.lie` format and the `pgc` command line driver.

Subcommands are exercised through run(argv) in-process.  Subprocess
tests check `python -m pgc`, `python -m pgc.cli` and the `pgc`
console-script entry point
from `pyproject.toml`, run from source the way the installed wrapper
calls it; the check on the installed `pgc` executable itself runs only
where one is on PATH.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import pgc.catalog
import pgc.cli
import pgc.commat
import pgc.enumctr
import pgc.lazard
import pgc.liecore
from pgc import (
    make_field, LieRing, ModRing, BudgetExceeded, validate, pfaffian_case_vectors,
)
from pgc.cli import (
    run, parse_lie, emit_lie,
    LieSyntaxError, DuplicateBracket, BadCoefficient,
)


HEIS5 = """\
name heis
ring p=5
dim 3
bracket 1 2 : 1 3
"""

HEIS9_EXT = """\
name heis9x
ring p=3 f=2
dim 3
bracket 1 2 : (1,0) 3
"""

HEIS_Z9 = """\
name heis9
ring p=3 e=2
dim 3
bracket 1 2 : 1 3
"""


def _write(tmp_path, text, name="t.lie"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# parse / emit


def test_parse_heisenberg():
    t = parse_lie(HEIS5)
    assert t.name == "heis"
    assert t.ring.p == 5 and t.ring.f == 1
    assert t.h == 3
    assert t.lam == {(0, 1): {2: 1}}
    validate(t)


def test_emit_is_canonical_and_rt_identity():
    for text in (HEIS5, HEIS9_EXT, HEIS_Z9):
        out = emit_lie(parse_lie(text))
        assert out == text
        assert emit_lie(parse_lie(out)) == out


def test_parse_comments_blank_lines_and_spacey_name():
    text = """
# a comment
name free nilpotent of rank 2   # trailing comment

ring p=7

dim 3
bracket 1 2 : 1 3  # the only bracket
"""
    t = parse_lie(text)
    assert t.name == "free nilpotent of rank 2"
    assert t.lam == {(0, 1): {2: 1}}


def test_emit_sorts_pairs_and_targets():
    t = LieRing(make_field(5), 4, {(2, 0): {1: 1}, (0, 1): {3: 2, 2: 1}})
    assert emit_lie(t) == (
        "ring p=5\ndim 4\n"
        "bracket 1 2 : 1 3 2 4\n"
        "bracket 1 3 : 4 2\n")


def test_int_coefficients_normalize_over_extension():
    # `1` and `(1)` both mean the tuple (1,0) over GF(9)
    base = emit_lie(parse_lie(HEIS9_EXT))
    for coeff in ("1", "(1)"):
        assert emit_lie(parse_lie(HEIS9_EXT.replace("(1,0)", coeff))) == base
    neg = parse_lie(HEIS5.replace(": 1 3", ": -1 3"))
    assert neg.lam == {(0, 1): {2: 4}}
    assert "bracket 1 2 : 4 3" in emit_lie(neg)


@pytest.mark.parametrize("text, lineno", [
    ("ring p=5\nring p=5\ndim 2\n", 2),
    ("ring p=5 p=5\ndim 2\n", 1),
    ("ring p=5 g=2\ndim 2\n", 1),
    ("ring f=2\ndim 2\n", 1),
    ("ring p=6\ndim 2\n", 1),
    ("ring p=5 f=2 e=2\ndim 2\n", 1),
    ("ring p=5 f=0\ndim 2\n", 1),
    ("ring p=5 e=0\ndim 2\n", 1),
    ("ring p=5\ndim 2\ndim 3\n", 3),
    ("ring p=5\ndim 0\n", 2),
    ("ring p=5\ndim two\n", 2),
    ("bracket 1 2 : 1 3\n", 1),
    ("ring p=5\nbracket 1 2 : 1 3\n", 2),
    ("ring p=5\ndim 3\nbracket 1 2 1 3\n", 3),
    ("ring p=5\ndim 3\nbracket x 2 : 1 3\n", 3),
    ("ring p=5\ndim 3\nbracket 1 4 : 1 3\n", 3),
    ("ring p=5\ndim 3\nbracket 2 2 : 1 3\n", 3),
    ("ring p=5\ndim 3\nbracket 1 2 : 1\n", 3),
    ("ring p=5\ndim 3\nbracket 1 2 :\n", 3),
    ("ring p=5\ndim 3\nbracket 1 2 : 1 3 2 3\n", 3),
    ("ring p=5\ndim 3\nbracket 1 2 : 1 9\n", 3),
    ("ring p=5\ndim 3\nfoo bar\n", 3),
    ("ring p=5\n", 0),
    ("dim 3\n", 0),
])
def test_syntax_errors(text, lineno):
    with pytest.raises(LieSyntaxError) as ei:
        parse_lie(text)
    assert ei.value.line == lineno


def test_large_primes_are_tested_without_trial_division():
    t0 = time.perf_counter()
    t = parse_lie("ring p=2305843009213693951\ndim 1\n")  # 2^61 - 1
    assert time.perf_counter() - t0 < 1
    assert t.ring.p == 2**61 - 1
    with pytest.raises(LieSyntaxError, match="is not prime"):
        parse_lie("ring p=1000000016000000063\ndim 1\n")  # 1000000007 * 1000000009


def test_closed_forms_at_a_large_prime_need_no_factorization(capsys):
    t0 = time.perf_counter()
    assert run(["free", "-r", "2", "-c", "2", "-p", "100000000000031"]) == 0
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().out.endswith("k = 10000000000006300000000000991\n")


def test_duplicate_pair_rejected_even_when_consistent():
    text = "ring p=5\ndim 3\nbracket 1 2 : 1 3\nbracket 2 1 : -1 3\n"
    with pytest.raises(DuplicateBracket) as ei:
        parse_lie(text)
    assert ei.value.pair == (2, 1)


@pytest.mark.parametrize("coeff", [
    "(1,0)",      # tuple needs f > 1
    "(1",         # unterminated
    "(1,x)",      # non-integer entry
    "()",         # empty
    "zz",         # not a number
])
def test_bad_coefficients_prime_field(coeff):
    with pytest.raises(BadCoefficient):
        parse_lie(f"ring p=5\ndim 3\nbracket 1 2 : {coeff} 3\n")


def test_bad_coefficient_tuple_too_long():
    with pytest.raises(BadCoefficient):
        parse_lie("ring p=3 f=2\ndim 3\nbracket 1 2 : (1,0,0) 3\n")


def test_coefficient_beyond_the_digit_limit_exits_2(tmp_path, capsys):
    # .lie input is parsed under the interpreter's limit on decimal digits
    f = _write(tmp_path, HEIS5.replace(": 1 3", ": " + "1" * 5000 + " 3"))
    t0 = time.perf_counter()
    assert run(["vectors", f]) == 2
    assert time.perf_counter() - t0 < 5
    out, err = capsys.readouterr()
    assert out == "" and "is not a coefficient" in err


# ---------------------------------------------------------------------------
# exit codes and error channel


def test_run_no_args_is_usage_error(capsys):
    assert run([]) == 2
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_run_reports_errors_on_stderr(tmp_path, capsys):
    assert run(["analyze", str(tmp_path / "missing.lie")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pgc: error:")


@pytest.mark.parametrize("text", [
    "ring p=5\ndim 3\nbracket 1 2 : 1 3\nbracket 2 1 : -1 3\n",
    "ring p=5\ndim 4\nbracket 1 2 : 1 3\nbracket 3 4 : 1 1\n",  # Jacobi
    "ring p=5\ndim 2\nbracket 1 2 : 1 2\n",                     # not nilpotent
])
def test_run_invalid_tables_exit_2(tmp_path, text, capsys):
    assert run(["vectors", _write(tmp_path, text)]) == 2
    capsys.readouterr()


def test_field_subcommand(capsys):
    assert run(["field", "-p", "3", "-f", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "GF(9) = GF(3^2)"
    assert lines[1].startswith("modulus x^2")
    assert lines[2] == "elements 9"
    assert run(["field", "-p", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["GF(7)", "elements 7"]
    assert run(["field", "-p", "6"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# vectors


def test_vectors_text_output(tmp_path, capsys):
    assert run(["vectors", _write(tmp_path, HEIS5)]) == 0
    assert capsys.readouterr().out == (
        "size 5^0 : 5\nsize 5^1 : 24\n"
        "degree 5^0 : 25\ndegree 5^1 : 4\n"
        "k = 29\n")


def test_vectors_json_output(tmp_path, capsys):
    assert run(["vectors", _write(tmp_path, HEIS5), "--json"]) == 0
    line = capsys.readouterr().out
    assert line == (
        '{"name": "heis", "p": 5, "f_or_e": "f=1", '
        '"class_vector": {"0": 5, "1": 24}, '
        '"char_vector": {"0": 25, "1": 4}, '
        '"k": 29, "method": "matrix"}\n')
    obj = json.loads(line)
    assert obj["k"] == 29


def test_vectors_threads_deterministic(tmp_path, capsys):
    f = _write(tmp_path, HEIS9_EXT)
    assert run(["vectors", f, "--json"]) == 0
    one = capsys.readouterr().out
    assert run(["vectors", f, "--json", "--threads", "3"]) == 0
    three = capsys.readouterr().out
    assert one == three
    obj = json.loads(one)
    assert obj["f_or_e"] == "f=2"
    # vector keys are exponents of p = 3, so q-size classes sit at key 2
    assert obj["class_vector"] == {"0": 9, "2": 80}
    assert obj["char_vector"] == {"0": 81, "2": 8}
    assert obj["k"] == 89


@pytest.mark.parametrize("method", ["matrix", "dual"])
def test_vectors_threads_below_one_is_invalid(tmp_path, capsys, method):
    f = _write(tmp_path, HEIS5)
    assert run(["vectors", f, "--method", method, "--threads", "0"]) == 2
    assert "--threads 0" in capsys.readouterr().err


HEIS5_GA = HEIS5.replace("name heis", "name g_alpha(1 mod 5)")


def test_verify_records_a_formula_whose_hypotheses_fail(tmp_path, capsys):
    # the name asks for the Pfaffian case formulas, but a = 2
    assert run(["verify", _write(tmp_path, HEIS5_GA)]) == 0
    out = capsys.readouterr().out
    assert "path formula    skipped (a = 2 <= 2)\n" in out
    assert out.endswith("verify: 4 paths agree\n")


def test_verify_records_a_formula_over_budget(tmp_path, capsys, monkeypatch):
    def over_budget(*args):
        raise BudgetExceeded("q^n = 10 exceeds budget 1")

    monkeypatch.setattr(pgc.catalog, "pfaffian_case_vectors", over_budget)
    assert run(["verify", _write(tmp_path, HEIS5_GA)]) == 0
    out = capsys.readouterr().out
    assert "path formula    skipped (budget)\n" in out
    assert out.endswith("verify: 4 paths agree\n")


def test_verify_budget_bounds_the_formula_path(tmp_path, capsys, monkeypatch):
    def census(*args):
        raise AssertionError("the formula's projective census started")

    f = str(tmp_path / "ga13.lie")
    assert run(["catalog", "boston_isaacs", "--alpha", "1", "-p", "3",
                "--emit", f]) == 0
    capsys.readouterr()
    monkeypatch.setattr(pgc.catalog, "projective_rank_census", census)
    assert run(["verify", f, "--budget", "1"]) == 0
    out = capsys.readouterr().out
    for label in ("theoremB", "dual", "formula"):
        assert f"path {label:<10} skipped (budget)\n" in out
    assert out.endswith("verify: 2 paths agree\n")


def _computations(fns, thunk):
    """(thunk(), {name: how often the body of fns[name] ran}). A per_table
    function is counted through the function it wraps, so a value read
    back from the memo is not counted."""
    codes = {getattr(fn, "__wrapped__", fn).__code__: name
             for name, fn in fns.items()}
    counts = dict.fromkeys(fns, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
    return result, counts


def test_vectors_computes_the_lower_central_series_once(tmp_path, capsys):
    f = _write(tmp_path, HEIS5)
    fns = {"series": pgc.liecore.lower_central_series}
    assert _computations(fns, lambda: run(["vectors", f])) == (0, {"series": 1})
    capsys.readouterr()


def test_verify_computes_each_invariant_once(tmp_path, capsys):
    # theoremB, dual, the Pfaffian formula and the oracle all read the
    # series, z, g', the adapted basis or the structure tensor
    f = str(tmp_path / "ga.lie")
    assert run(["catalog", "boston_isaacs", "--alpha", "1", "-p", "3",
                "--emit", f]) == 0
    fns = {name: getattr(pgc.liecore, name) for name in
           ("lower_central_series", "centre", "derived", "adapt_basis")}
    fns["structure_tensor"] = pgc.commat.structure_tensor
    assert _computations(fns, lambda: run(["verify", f])) == (0, dict.fromkeys(fns, 1))
    out = capsys.readouterr().out
    assert "path formula" in out and out.endswith("verify: 5 paths agree\n")


def test_vectors_dual_modular(tmp_path, capsys):
    assert run(["vectors", _write(tmp_path, HEIS_Z9), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["f_or_e"] == "e=2"
    assert obj["method"] == "dual"
    assert obj["class_vector"] == {"0": 9, "1": 24, "2": 72}
    assert obj["char_vector"] == {"0": 81, "1": 18, "2": 6}
    assert obj["k"] == 105


def _routes_tables():
    """The tables of the benchmark's routes workload, in the package's basis."""
    from pgc import boston_isaacs_table, free_table, quadric_table

    def heis(p, e):
        return LieRing(ModRing(p, e), 3, {(0, 1): {2: 1}}, "heis")

    return [heis(5, 3), heis(3, 4), heis(3, 3), free_table(3, 2, ModRing(3, 2)),
            LieRing(ModRing(3, 3), 4, {(0, 1): {2: 1}, (0, 3): {2: 3}}, "fattened-heis"),
            boston_isaacs_table(1, 3), free_table(2, 3, make_field(7)), quadric_table(3),
            free_table(2, 2, make_field(3, 2))]


def test_dual_route_threads_print_the_same_bytes(tmp_path, capsys, monkeypatch):
    # 64 matrices a block: every census but the smallest is dealt to both threads
    monkeypatch.setattr(pgc.enumctr, "_CHUNK", 64)
    for n, t in enumerate(_routes_tables()):
        f = _write(tmp_path, emit_lie(t), f"{n}.lie")
        out = []
        for threads in ("1", "2"):
            assert run(["vectors", f, "--json", "--method", "dual", "--threads", threads]) == 0
            out.append(capsys.readouterr())
        assert out[0] == out[1], t.name


def test_vectors_method_restrictions(tmp_path, capsys):
    # the dual route takes GF(9) over GF(3) and prints the matrix route's bytes
    f = _write(tmp_path, HEIS9_EXT)
    assert run(["vectors", f]) == 0
    matrix = capsys.readouterr().out
    assert run(["vectors", f, "--method", "dual"]) == 0
    assert capsys.readouterr().out == matrix
    assert run(["vectors", _write(tmp_path, HEIS_Z9), "--method", "matrix"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("cmd, flag, bound", [
    ("vectors", "--budget", "most matrices one route's censuses may rank"),
    ("verify", "--budget", "most matrices one route's censuses may rank"),
    ("verify", "--oracle-budget", "most group elements the oracle may enumerate"),
    ("oracle", "--budget", "most group elements the oracle may enumerate"),
])
def test_budgets_say_what_they_bound_and_refuse_negatives(tmp_path, capsys, cmd, flag,
                                                          bound):
    assert run([cmd, "--help"]) == 0
    assert f"{flag} {flag[2:].replace('-', '_').upper()} {bound}" in " ".join(
        capsys.readouterr().out.split())
    assert run([cmd, _write(tmp_path, HEIS5), flag, "-1"]) == 2
    assert f"argument {flag}: -1 is below 0" in capsys.readouterr().err


def test_vectors_budget_exceeded_exit_3(tmp_path, capsys):
    assert run(["vectors", _write(tmp_path, HEIS5), "--budget", "0"]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# free


def test_free_closed_form_output(capsys):
    assert run(["free", "-r", "2", "-c", "3", "-p", "5"]) == 0
    assert capsys.readouterr().out == (
        "size 5^0 : 25\nsize 5^2 : 124\n"
        "degree 5^0 : 25\ndegree 5^1 : 124\n"
        "k = 149\n")


def test_free_closed_vs_enumerate_agree(capsys):
    # both are keyed by exponents of p, also over GF(p^f)
    for r, c, p, f in [(2, 3, 5, 1), (2, 2, 3, 2), (2, 3, 5, 2)]:
        argv = ["free", "-r", str(r), "-c", str(c), "-p", str(p), "-f", str(f)]
        assert run(argv + ["--json"]) == 0
        closed = json.loads(capsys.readouterr().out)
        assert run(argv + ["--enumerate", "--json"]) == 0
        enum = json.loads(capsys.readouterr().out)
        assert closed["method"] == "closed" and enum["method"] == "matrix"
        for key in ("class_vector", "char_vector", "k"):
            assert closed[key] == enum[key], (r, c, p, f)
        assert run(argv) == 0
        text = capsys.readouterr().out
        assert run(argv + ["--enumerate"]) == 0
        assert text == capsys.readouterr().out, (r, c, p, f)


def test_free_fixture_pair_has_char_vector(capsys):
    assert run(["free", "-r", "3", "-c", "3", "-p", "7", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["class_vector"]["0"] == 7 ** 8
    assert obj["char_vector"]["0"] == 7 ** 3
    assert sum(obj["char_vector"].values()) == obj["k"]


def test_free_without_fixture_omits_char_vector(capsys):
    assert run(["free", "-r", "4", "-c", "3", "-p", "5", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["char_vector"] is None
    assert obj["class_vector"]["0"] == 5 ** 20
    assert run(["free", "-r", "4", "-c", "3", "-p", "5"]) == 0
    out = capsys.readouterr().out
    assert "degree" not in out
    assert out.strip().endswith(f"k = {obj['k']}")


def test_free_emit_round_trips(tmp_path, capsys):
    f = str(tmp_path / "f23.lie")
    assert run(["free", "-r", "2", "-c", "3", "-p", "5", "--emit", f]) == 0
    assert capsys.readouterr().out == f"wrote {f}\n"
    text = open(f).read()
    t = parse_lie(text)
    assert t.name == "f(2,3)" and t.h == 5
    validate(t)
    assert emit_lie(t) == text


def test_free_enumerate_budget_preflight_exit_3(capsys):
    assert run(["free", "-r", "2", "-c", "5", "-p", "7", "--enumerate"]) == 3
    assert "exceeds budget" in capsys.readouterr().err


def test_vectors_refuses_an_oversized_census_before_ranking(tmp_path, capsys,
                                                          monkeypatch):
    def kernel(*args):
        raise AssertionError("a census started")

    monkeypatch.setattr(pgc.enumctr, "stacked_ranks", kernel)
    f = str(tmp_path / "f25.lie")
    assert run(["free", "-r", "2", "-c", "5", "-p", "7", "--emit", f]) == 0
    capsys.readouterr()
    assert run(["vectors", f]) == 3
    assert "exceeds budget" in capsys.readouterr().err


def test_free_closed_form_needs_small_class(capsys):
    assert run(["free", "-r", "2", "-c", "3", "-p", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["free", "-r", "2", "-c", "2", "-p", "15"],  # q = 15 is no prime power
    ["free", "-r", "2", "-c", "2", "-p", "9"],  # 9 is no prime
    ["free", "-r", "1", "-c", "2", "-p", "5"],
    ["free", "-r", "2", "-c", "0", "-p", "5"],
    ["fit", "-r", "1", "-c", "2", "--target", "k", "--at", "3,5,7"],
    ["fit", "-r", "2", "-c", "2", "--target", "k", "--at", "15,21,33"],
])
def test_free_and_fit_reject_bad_parameters(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("pgc: error:")


@pytest.mark.parametrize("argv, got", [
    (["free", "-r", "1", "-c", "2", "-p", "5"], "got r = 1, c = 2"),
    (["free", "-r", "2", "-c", "0", "-p", "5", "--json"], "got r = 2, c = 0"),
    (["fit", "-r", "1", "-c", "2", "--target", "k", "--at", "5,7"], "got r = 1, c = 2"),
    # the class-2 character formula answered f(1, 2) with exit 0
    (["fit", "-r", "1", "-c", "2", "--target", "ch", "--at", "5,7"], "got r = 1, c = 2"),
])
def test_closed_forms_name_r_and_c_in_their_argument_error(argv, got, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"pgc: error: need r >= 2 generators and class >= 1, {got}\n"


def test_free_and_fit_print_integers_beyond_the_digit_limit(capsys):
    # k(f(6,6)/GF(7)) has more decimal digits than the interpreter converts
    # by default; printing lifts that limit and puts it back
    limit = sys.get_int_max_str_digits()
    argv = ["free", "-r", "6", "-c", "6", "-p", "7"]
    assert run(argv) == 0
    text = capsys.readouterr().out
    assert run(argv + ["--json"]) == 0
    obj = capsys.readouterr().out
    assert run(["fit", "-r", "6", "-c", "6", "--target", "k", "--at", "7,11"]) == 0
    fit = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit
    ks = {q: pgc.class_number_closed(6, 6, q) for q in (7, 11)}
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(ks[7])) > limit
        assert text.endswith(f"\nk = {ks[7]}\n")
        assert json.loads(obj)["k"] == ks[7]
        slope, sign, const = re.fullmatch(r"k = (\d+) q ([+-]) (\d+)\n", fit).groups()
        for q in (7, 11):
            assert int(slope) * q + int(sign + const) == ks[q]
    finally:
        sys.set_int_max_str_digits(limit)


def test_free_closed_json_builds_no_table(monkeypatch, capsys):
    def build(*args):
        raise AssertionError("the free table was built")

    monkeypatch.setattr(pgc.cli, "free_table", build)
    assert run(["free", "-r", "2", "-c", "3", "-p", "5", "-f", "2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["name"], obj["p"], obj["f_or_e"]) == ("f(2,3)", 5, "f=2")
    assert (obj["k"], obj["method"]) == (pgc.class_number_closed(2, 3, 25), "closed")


# ---------------------------------------------------------------------------
# oracle


def test_oracle_both_censuses(tmp_path, capsys):
    f = _write(tmp_path, HEIS5.replace("p=5", "p=3"))
    assert run(["oracle", f]) == 0
    assert capsys.readouterr().out == (
        "size 3^0 : 3\nsize 3^1 : 8\n"
        "degree 3^0 : 9\ndegree 3^1 : 2\n"
        "k = 11\n")
    assert run(["oracle", f, "--classes"]) == 0
    assert capsys.readouterr().out == "size 3^0 : 3\nsize 3^1 : 8\nk = 11\n"
    assert run(["oracle", f, "--budget", "10"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("flag, rows, message", [
    # swapping e1 and e2: classes of size 2, not a power of 3
    ("--classes", [(0, 1, 0), (1, 0, 0), (0, 0, 1)], "class size 2"),
    # e1 -> e1 + e2: co-adjoint orbits of size 3, not an even power of 3
    ("--orbits", [(1, 1, 0), (0, 1, 0), (0, 0, 1)], "orbit size 3"),
])
def test_oracle_orbit_size_failures_exit_1(tmp_path, capsys, monkeypatch,
                                           flag, rows, message):
    monkeypatch.setattr(pgc.lazard, "_ad_rows", lambda table, gens: [rows] * len(gens))
    f = _write(tmp_path, HEIS5.replace("p=5", "p=3"))
    assert run(["oracle", f, flag]) == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_a_non_skew_b_exits_2(tmp_path, capsys, monkeypatch):
    # B(Y) is skew by construction from a valid table; a symmetric structure
    # tensor reaches the skew check in LinearFormMatrix, an input error
    tensor = pgc.commat.structure_tensor
    monkeypatch.setattr(pgc.commat, "structure_tensor",
                        lambda t: np.maximum(tensor(t), tensor(t).transpose(1, 0, 2)))
    assert run(["vectors", _write(tmp_path, HEIS5)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "is not zero" in err


def test_parser_is_built_once(capsys):
    assert pgc.cli._build_parser() is pgc.cli._build_parser()
    assert run(["--help"]) == 0 and run(["field", "-p", "4"]) == 2
    assert run(["nonsense"]) == 2 and run(["field", "-p", "3"]) == 0
    assert capsys.readouterr().out.startswith("usage: pgc")


# ---------------------------------------------------------------------------
# catalog


def test_catalog_quadric(capsys):
    assert run(["catalog", "quadric", "-q", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("name quadric(3)\ndim 8\n")
    assert "k = 417" in out
    assert run(["catalog", "quadric"]) == 2
    assert "needs -q" in capsys.readouterr().err


def test_catalog_quadric_prints_what_vectors_prints(tmp_path, capsys):
    f = str(tmp_path / "quad9.lie")
    assert run(["catalog", "quadric", "-q", "9", "--emit", f]) == 0
    capsys.readouterr()
    assert run(["catalog", "quadric", "-q", "9"]) == 0
    expected = capsys.readouterr().out.splitlines()
    assert run(["vectors", f]) == 0
    computed = capsys.readouterr().out.splitlines()
    assert "size 3^4 : 12960" in computed
    assert [l for l in expected if l.startswith(("size", "degree", "k ="))] == computed


def test_catalog_boston_isaacs(capsys):
    assert run(["catalog", "boston_isaacs", "--alpha", "1", "-p", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("name g_alpha(1 mod 5)\ndim 9\n")
    _, _, k, rep = pfaffian_case_vectors_for(1, 5)
    assert f"k = {k}" in out
    assert f"n = {rep.n}" in out
    assert run(["catalog", "boston_isaacs", "--alpha", "5", "-p", "5"]) == 2
    capsys.readouterr()


def pfaffian_case_vectors_for(alpha, p):
    from pgc import boston_isaacs_table
    return pfaffian_case_vectors(boston_isaacs_table(alpha, p))


def test_catalog_degree_set_families(capsys):
    assert run(["catalog", "isaacs_cd", "-I", "1,2", "-p", "3"]) == 0
    out = capsys.readouterr().out
    assert "cd : 1 3 9" in out
    assert run(["catalog", "fm", "-l", "2", "-n", "3", "-p", "5"]) == 0
    out = capsys.readouterr().out
    assert "cd : 1 25" in out
    assert "cs : 1 5 25 125" in out
    assert run(["catalog", "isaacs_cd", "-I", "1,x", "-p", "3"]) == 2
    assert run(["catalog", "nonesuch"]) == 2
    capsys.readouterr()


def test_catalog_reports_the_missing_flag(capsys):
    assert run(["catalog", "isaacs_cd", "-I", "1,3"]) == 2
    assert capsys.readouterr().err == "pgc: error: catalog family needs -p\n"
    assert run(["catalog", "isaacs_cd", "-p", "3"]) == 2
    assert capsys.readouterr().err == "pgc: error: catalog family needs -I\n"
    # each family asks for its flags in order; the parser offers every family
    for name, flags in CATALOG_FLAGS.items():
        for given in range(len(flags)):
            assert run(["catalog", name] + [t for flag in flags[:given] for t in flag]) == 2
            assert capsys.readouterr().err == \
                f"pgc: error: catalog family needs {flags[given][0]}\n"
    assert run(["catalog", "--help"]) == 0
    assert "{" + ",".join(pgc.catalog.CATALOG_NAMES) + "}" in capsys.readouterr().out
    assert tuple(CATALOG_FLAGS) == pgc.catalog.CATALOG_NAMES


# small parameters of every family, as flags in the order `pgc catalog` asks for them
CATALOG_FLAGS = {"boston_isaacs": [("--alpha", "1"), ("-p", "3")], "quadric": [("-q", "3")],
                 "isaacs_cd": [("-I", "1,2"), ("-p", "3")],
                 "fm": [("-l", "2"), ("-n", "3"), ("-p", "5")]}


def test_catalog_emit(tmp_path, capsys):
    f = str(tmp_path / "quad.lie")
    assert run(["catalog", "quadric", "-q", "3", "--emit", f]) == 0
    out = capsys.readouterr().out
    assert f"wrote {f}" in out
    t = parse_lie(open(f).read())
    validate(t)
    assert t.h == 8 and t.name == "quadric(3)"
    # every family's table passes verify; quadric(2) and quadric(4) have
    # class 2 >= p, so their closed forms are refused like every other route
    cases = [(name, sum(flags, ()), 0) for name, flags in CATALOG_FLAGS.items()]
    for name, argv, code in cases + [("quadric", ("-q", q), code)
                                     for q, code in (("9", 0), ("2", 3), ("4", 3))]:
        assert run(["catalog", name, *argv, "--emit", f]) == 0
        capsys.readouterr()
        assert run(["verify", f]) == code, argv
        out, err = capsys.readouterr()
        assert out.endswith(" paths agree\n") if code == 0 else \
            err == "pgc: error: no verification path applies within budget\n"


# ---------------------------------------------------------------------------
# fit


def test_fit_class_number_polynomial(capsys):
    assert run(["fit", "-r", "2", "-c", "2", "--target", "k",
                "--at", "3,5,7,9"]) == 0
    assert capsys.readouterr().out == "k = q^2 + q - 1\n"
    assert run(["fit", "-r", "2", "-c", "3", "--target", "k",
                "--at", "5,7,11,13"]) == 0
    assert capsys.readouterr().out == "k = q^3 + q^2 - 1\n"


def test_fit_vector_polynomials(capsys):
    assert run(["fit", "-r", "2", "-c", "2", "--target", "cc",
                "--at", "3,5,7"]) == 0
    assert capsys.readouterr().out == "cc[0] = q\ncc[1] = q^2 - 1\n"
    assert run(["fit", "-r", "2", "-c", "2", "--target", "ch",
                "--at", "3,5,7"]) == 0
    assert capsys.readouterr().out == "ch[0] = q^2\nch[1] = q - 1\n"


def test_fit_bad_nodes(capsys):
    assert run(["fit", "-r", "2", "-c", "2", "--target", "k", "--at", "3"]) == 2
    assert run(["fit", "-r", "2", "-c", "2", "--target", "k",
                "--at", "3,x"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_free_table_all_paths_agree(tmp_path, capsys):
    f = str(tmp_path / "f23_q5.lie")
    assert run(["free", "-r", "2", "-c", "3", "-p", "5", "--emit", f]) == 0
    capsys.readouterr()
    assert run(["verify", f]) == 0
    out = capsys.readouterr().out
    assert "verify: 5 paths agree" in out
    for label in ("theoremB", "dual", "closed", "conjugacy", "coadjoint"):
        assert f"path {label}" in out
    assert out.count("k = 149") == 5


def test_verify_skips_over_budget_paths(tmp_path, capsys):
    f = str(tmp_path / "f23_q5.lie")
    run(["free", "-r", "2", "-c", "3", "-p", "5", "--emit", f])
    capsys.readouterr()
    assert run(["verify", f, "--oracle-budget", "1000"]) == 0
    out = capsys.readouterr().out
    assert "verify: 3 paths agree" in out
    assert "path conjugacy  skipped (budget)" in out
    assert "path coadjoint  skipped (budget)" in out


def test_verify_detects_wrong_closed_form(tmp_path, capsys):
    # a table that claims to be f(2,2) but has a spare central generator
    wrong = "name f(2,2)\nring p=5\ndim 4\nbracket 1 2 : 1 3\n"
    assert run(["verify", _write(tmp_path, wrong)]) == 1
    out = capsys.readouterr().out
    # one line per kind and route that differs: class, then char, then k
    assert out.endswith(
        "MISMATCH: class vectors differ: theoremB {0: 25, 1: 120} vs closed {0: 5, 1: 24}\n"
        "MISMATCH: char vectors differ: theoremB {0: 125, 1: 20} vs closed {0: 25, 1: 4}\n"
        "MISMATCH: k differs: theoremB 145 vs closed 29\n")
    assert out.count("MISMATCH") == 3


def test_verify_extension_field_free_table(tmp_path, capsys):
    # closed forms are keyed by exponents of q = 9, the other routes by
    # exponents of p = 3
    f = str(tmp_path / "f22_q9.lie")
    assert run(["free", "-r", "2", "-c", "2", "-p", "3", "-f", "2",
                "--emit", f]) == 0
    assert "name f(2,2)\nring p=3 f=2\n" in pathlib.Path(f).read_text()
    capsys.readouterr()
    assert run(["verify", f]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert "verify: 5 paths agree" in out
    assert "path closed" in out and "path dual       k = 89\n" in out


def test_verify_skips_a_free_name_larger_than_the_table(tmp_path, capsys):
    # f(400,2) has 80,200 dimensions; its closed forms are not evaluated
    f = _write(tmp_path, HEIS5.replace("name heis", "name f(400,2)"))
    t0 = time.perf_counter()
    assert run(["verify", f]) == 0
    assert time.perf_counter() - t0 < 1
    out = capsys.readouterr().out
    assert "path closed     skipped (f(400,2) has dimension 80200, the table 3)\n" in out
    assert out.endswith("verify: 4 paths agree\n")


@pytest.mark.parametrize("name", ["f(1,2)", "f(2,0)"])
def test_verify_skips_a_name_without_closed_form(tmp_path, capsys, name):
    assert run(["verify", _write(tmp_path, HEIS5.replace("name heis", f"name {name}"))]) == 0
    out = capsys.readouterr().out
    assert f"path closed     skipped ({name} needs r >= 2 and c >= 1)\n" in out
    assert out.endswith("verify: 4 paths agree\n")


def test_verify_modular_table(tmp_path, capsys):
    assert run(["verify", _write(tmp_path, HEIS_Z9)]) == 0
    out = capsys.readouterr().out
    assert "verify: 3 paths agree" in out
    assert "theoremB" not in out


def test_verify_nothing_applicable_exit_3(tmp_path, capsys):
    f = _write(tmp_path, HEIS9_EXT)
    assert run(["verify", f, "--budget", "0", "--oracle-budget", "2"]) == 3
    assert "no verification path applies" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze and the console script


def test_analyze_reports_invariants(tmp_path, capsys):
    assert run(["analyze", _write(tmp_path, HEIS5)]) == 0
    out = capsys.readouterr().out
    for line in ("name heis", "dim 3", "class 2", "centre dim 1",
                 "derived dim 1", "a = 2  b = 1", "A(X):", "B(Y):"):
        assert line in out
    assert run(["analyze", _write(tmp_path, HEIS_Z9)]) == 0
    out = capsys.readouterr().out
    assert "class 2" in out and "centre order 9" in out
    assert "A(X):" not in out


PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def _check_entry_point(cmd):
    """Run `cmd` (a command prefix standing for `pgc`) as the console
    script would be run: success prints to stdout, errors exit 2."""
    r = subprocess.run(cmd + ["field", "-p", "3"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0] == "GF(3)"
    r = subprocess.run(cmd + ["field", "-p", "4"],
                       capture_output=True, text=True)
    assert r.returncode == 2
    assert "pgc: error" in r.stderr


def test_console_script_installed():
    # stderr may carry runpy's RuntimeWarning: pgc/__init__ imports pgc.cli
    r = subprocess.run([sys.executable, "-m", "pgc.cli", "-h"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: pgc")
    tomllib = pytest.importorskip(
        "tomllib" if sys.version_info >= (3, 11) else "tomli")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pgc"]
    module, func = target.split(":")
    # the wrapper pip writes for a `module:func` entry point
    code = (f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'pgc'; sys.exit({func}())")
    _check_entry_point([sys.executable, "-c", code])


def test_python_m_pgc():
    r = subprocess.run([sys.executable, "-m", "pgc", "-h"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: pgc")
    assert r.stderr == ""


@pytest.mark.skipif(shutil.which("pgc") is None,
                    reason="no pgc executable on PATH (package not installed)")
def test_console_script_on_path():
    _check_entry_point(["pgc"])
