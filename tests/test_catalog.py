"""Worked class-2 families: Pfaffian-case counting and degree sets."""

import pytest

from pgc import (
    make_field,
    boston_isaacs_table, quadric_table, isaacs_cd_table, fm_table,
    pfaffian_case_vectors, build_entry,
    HypothesesFailed, ZeroAlpha, CATALOG_NAMES,
    validate, nilpotency_class, vectors_theoremB,
    build_commutator_matrices, pfaffian,
)


def test_catalog_tables_validate_class_2():
    tables = [
        boston_isaacs_table(1, 5),
        quadric_table(3),
        isaacs_cd_table([1, 3], 3),
        fm_table(2, 3, 5),
    ]
    for t in tables:
        validate(t)
        assert nilpotency_class(t) == 2


def test_boston_isaacs_rejects_bad_alpha():
    with pytest.raises(ZeroAlpha):
        boston_isaacs_table(0, 5)
    with pytest.raises(ZeroAlpha):
        boston_isaacs_table(10, 5)
    with pytest.raises(ValueError):
        boston_isaacs_table(1, 2)


def test_boston_isaacs_formula_equals_enumeration_p5():
    for alpha in (1, 2, 3, 4):
        t = boston_isaacs_table(alpha, 5)
        cc_f, ch_f, k, rep = pfaffian_case_vectors(t)
        cc_e, ch_e = vectors_theoremB(t)
        assert dict(cc_f.items()) == dict(cc_e.items()), alpha
        assert dict(ch_f.items()) == dict(ch_e.items()), alpha
        assert k == cc_e.total()
        assert k == 5**6 + 5**3 - 1 + rep.n * (5**2 - 1) * (5 - 1)


def test_boston_isaacs_n_varies_with_alpha():
    ns = {a: pfaffian_case_vectors(boston_isaacs_table(a, 7))[3].n
          for a in range(1, 7)}
    assert len(set(ns.values())) > 1


def test_quadric_fails_line_condition():
    t = quadric_table(3)
    with pytest.raises(HypothesesFailed) as ei:
        pfaffian_case_vectors(t)
    assert "line" in str(ei.value)


def test_quadric_enumerated_vectors():
    t = quadric_table(3)
    cc, ch = vectors_theoremB(t)
    q = 3
    assert dict(cc.items()) == \
        {0: q**4, 2: 2 * (q**2 - 1) * q**2, 3: q * (q**2 - 1) ** 2}
    assert dict(ch.items()) == \
        {0: q**4, 1: q**2 * (q - 1) * (q + 1) ** 2,
         2: q**4 - 1 - (q + 1) ** 2 * (q - 1)}


def test_quadric_pfaffian_is_the_quadric():
    t = quadric_table(3)
    _, B = build_commutator_matrices(t)
    fs = t.ring
    from itertools import product
    for y in product(range(3), repeat=4):
        want = fs.sub(fs.mul(y[1], y[2]), fs.mul(y[0], y[3]))
        assert pfaffian(B.evaluate(y), fs) == want


def test_isaacs_cd_degree_sets():
    for I in ({1}, {2}, {1, 2}, {1, 3}):
        for p in (3, 5):
            t = isaacs_cd_table(sorted(I), p)
            _, ch = vectors_theoremB(t)
            assert {p**i for i, n in ch.items() if n} == \
                {p**i for i in {0} | I}, (I, p)


def test_fm_degree_and_class_size_sets():
    t = fm_table(2, 3, 5)
    cc, ch = vectors_theoremB(t)
    assert {5**i for i, n in ch.items() if n} == {1, 25}
    assert {5**i for i, n in cc.items() if n} == {1, 5, 25, 125}


def test_build_entry_catalog_names():
    assert set(CATALOG_NAMES) == {"boston_isaacs", "quadric", "isaacs_cd", "fm"}
    e = build_entry("quadric", q=3)
    assert e.expected["k"] == sum(dict(e.expected["cc"].items()).values())
    # over GF(9) the vectors are keyed by exponents of p = 3, p is set
    e = build_entry("quadric", q=9)
    assert e.expected["cc"].p == 3 and e.expected["cc"][4] == 12960
    assert e.expected["cc"].mass() == 9**8 == e.expected["ch"].mass(2)
    e = build_entry("fm", l=2, n=3, p=5)
    assert e.expected["cd"] == {1, 25}
    with pytest.raises(ValueError):
        build_entry("nonesuch")
