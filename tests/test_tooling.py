"""The benchmark's tooling still runs on the package: the per-layer tracer
finds the functions it wraps, and pin.py reproduces the pinned answers."""

import json
from pathlib import Path

import pytest

import pgc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_records_the_theoremB_and_dual_spans(monkeypatch):
    # over GF(25) the dual route runs on the table over GF(5)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import Tracer

    for f in (1, 2):
        t = pgc.free_table(2, 3, pgc.make_field(5, f))
        tracer = Tracer()
        tracer.install()
        try:
            cc_b, ch_b = pgc.vectors_theoremB(t)
            cc_d, ch_d = pgc.vectors_dual(t)
        finally:
            tracer.remove()
        assert (cc_b, ch_b) == (cc_d, ch_d)
        spans = {"liecore.adapt_basis", "commat.build", "enumctr.census_A",
                 "enumctr.census_B", "enumctr.dual"}
        assert spans <= set(tracer.seconds), sorted(tracer.seconds)
        assert tracer.counts["enumctr.census_A.pts"] == 5 ** (3 * f)
        assert tracer.counts["enumctr.dual.reps"] == 5 ** (3 * f)  # |g/z|
        assert pgc.vectors_dual.__module__ == "pgc.enumctr"  # unwrapped again


def test_tracer_records_the_censuses_on_the_kernel_route(monkeypatch):
    # A(X) of g_alpha(2 mod 11) is 6 x 3 in 6 variables: its census ranks
    # the 267 subspaces of F_11^3, not the points of F_11^6
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import Tracer

    t = pgc.boston_isaacs_table(2, 11)
    A, _ = pgc.build_commutator_matrices(t)
    kernel, (bases, _, _) = pgc.enumctr._cheaper(A)
    assert kernel and bases == 267
    tracer = Tracer()
    tracer.install()
    try:
        pgc.vectors_theoremB(t)
    finally:
        tracer.remove()
    assert {"enumctr.census_A", "enumctr.census_B"} <= set(tracer.seconds)
    assert tracer.counts["enumctr.census_A.pts"] == 11**6


def test_tracer_records_the_spans_of_a_verify_run(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import Tracer

    f = tmp_path / "f23.lie"
    f.write_text(pgc.emit_lie(pgc.free_table(2, 3, pgc.make_field(5))))
    tracer = Tracer()
    tracer.install()
    try:
        assert pgc.cli.run(["verify", str(f)]) == 0
    finally:
        tracer.remove()
    assert capsys.readouterr().out.endswith("paths agree\n")
    assert {"liecore.centre_derived", "liecore.validate"} <= set(tracer.seconds)
    assert "freenil.closed" in tracer.seconds
    assert pgc.liecore.centre.__module__ == "pgc.liecore"  # unwrapped again


def test_theoremB_ranks_each_census_matrix_once(monkeypatch):
    # B's kernel census reads its level 1 off A's census instead of ranking
    # the lines of F_q^a again: f(2,4)/GF(7) once ranked 5,603 bases (2,801
    # lines for A, the same lines and F_7^5 for B), quadric(9)/GF(9) 1,640,
    # f(4,2)/GF(7) 801 and f(5,2)/GF(3) 243. g_alpha(2 mod 11)'s 6 x 6 B
    # stays on the point census: its levels 2 and 6 hold 2.4e8 subspaces.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tables import WORKLOADS, build

    ranked, original = [], pgc.commat.build_stacks

    def counted(fs, codes, exps, block):
        ranked.append(sum(stop - start for _, start, stop in block))
        return original(fs, codes, exps, block)

    monkeypatch.setattr(pgc.commat, "build_stacks", counted)
    bases = {}
    for key, command, constructor, args in WORKLOADS["census"]:
        ranked.clear()
        pgc.vectors_theoremB(build(constructor, args))
        bases[key] = sum(ranked)
    assert bases == {
        "g_alpha(2 mod 11)/GF(11)": 400, "f(2,4)/GF(7)": 2802, "f(4,2)/GF(7)": 401,
        "f(5,2)/GF(3)": 122, "f(2,3)/GF(25)": 651, "quadric(9)/GF(9)": 821,
        "f(3,2)/GF(9)": 91, "heis/GF(27)": 1}


def _priced_and_ranked(route, table, monkeypatch):
    """((bases, blocks), (bases, blocks)) of route(table): the first as the
    route's budget check reads them off _price, summed over its censuses,
    the second as build_stacks is handed them (bases, and calls)."""
    priced, ranked = [], []
    within, original = pgc.enumctr._within, pgc.commat.build_stacks

    def recorded(budget, name, *prices):
        priced.append(prices)
        return within(budget, name, *prices)

    def counted(fs, codes, exps, block):
        ranked.append(sum(stop - start for _, start, stop in block))
        return original(fs, codes, exps, block)

    monkeypatch.setattr(pgc.enumctr, "_within", recorded)
    monkeypatch.setattr(pgc.commat, "build_stacks", counted)
    route(table)
    monkeypatch.setattr(pgc.enumctr, "_within", within)
    monkeypatch.setattr(pgc.commat, "build_stacks", original)
    prices = priced[0]  # the route's own check; each census checks again
    return ((sum(bases for bases, _, _ in prices), sum(blocks for _, blocks, _ in prices)),
            (sum(ranked), len(ranked)))


@pytest.mark.parametrize("chunk", [1 << 15, 7])
def test_the_price_is_the_walk(chunk, monkeypatch):
    # Theorem B prices A and B seeded at level 1 on every census table, the
    # dual route both sides on every dual table of `routes`; with 7
    # matrices a block, levels span many blocks
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tables import WORKLOADS, build

    monkeypatch.setattr(pgc.enumctr, "_CHUNK", chunk)
    cases = [(pgc.vectors_theoremB, entry) for entry in WORKLOADS["census"]]
    cases += [(pgc.vectors_dual, entry) for entry in WORKLOADS["routes"] if entry[1] == "dual"]
    assert len(cases) == 8 + 6
    for route, (key, _, constructor, args) in cases:
        priced, ranked = _priced_and_ranked(route, build(constructor, args), monkeypatch)
        assert priced == ranked, key


def test_pin_reproduces_the_pinned_answers(monkeypatch):
    # perfbench/pin.py rebuilds reference.json from the package's closed
    # forms and Pfaffian formula; every table it answers without the
    # oracle must still give the cc and ch pinned there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from pin import independent
    from tables import WORKLOADS, build

    reference = json.loads((PERFBENCH / "reference.json").read_text())
    answered = set()
    for key, _, constructor, args in (e for entries in WORKLOADS.values() for e in entries):
        row = independent(constructor, args, build(constructor, args))
        if row is not None:
            _, cc, ch = row
            assert {str(i): n for i, n in cc.items()} == reference[key]["cc"], key
            assert {str(i): n for i, n in ch.items()} == reference[key]["ch"], key
            answered.add(key)
    assert {"quadric(3)/GF(3)", "quadric(9)/GF(9)", "g_alpha(1 mod 3)/GF(3)",
            "g_alpha(2 mod 11)/GF(11)"} <= answered
