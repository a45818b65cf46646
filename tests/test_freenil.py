"""Hall bases, collection, and the free-table closed forms."""

import pytest

from pgc import (
    make_field,
    witt, free_dimension, n_bound, k_exponent, N_exponent,
    hall_basis, collect, free_table,
    class_vector_closed, class_number_closed,
    char_degrees_closed, char_vector_class2, char_count_degree_q,
    char_vector_closed,
    fixture_vectors,
    ExceptionalCase, UnknownFixture, ClassTooLarge,
    validate, vectors_theoremB, lower_central_series,
)


def test_witt_numbers():
    assert [witt(2, i) for i in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert [witt(3, i) for i in range(1, 5)] == [3, 3, 8, 18]
    for r, i in [(1, 2), (2, 0)]:
        with pytest.raises(ValueError):
            witt(r, i)
        with pytest.raises(ValueError):
            hall_basis(r, i)


def test_free_dimension():
    assert free_dimension(2, 2) == 3
    assert free_dimension(2, 3) == 5
    assert free_dimension(2, 5) == 14
    assert free_dimension(3, 3) == 14


def test_hall_basis_layers_and_display():
    b = hall_basis(2, 3)
    assert b.dimension == 5
    assert [len(l) for l in b.layers] == [2, 1, 2]
    shown = [b.display(i) for i in range(5)]
    assert shown == ["y", "x", "xy", "xyy", "xyx"]


def test_collection_antisymmetry_of_generators():
    b = hall_basis(2, 3)
    # [x, y] = +xy, so collect on (xy index pair) respects the Hall order
    row_xy = collect(1, 0, b)
    assert row_xy == {2: 1}
    row_yx = collect(0, 1, b)
    assert row_yx == {2: -1}


def test_free_tables_validate():
    for (r, c, p) in [(2, 2, 3), (2, 3, 5), (3, 2, 3), (2, 4, 5), (3, 3, 5)]:
        t = free_table(r, c, make_field(p))
        validate(t)
        _, cls = lower_central_series(t)
        assert cls == c


def test_free_table_any_characteristic_builds():
    # integer collection makes reduction valid even at p <= c
    t = free_table(3, 3, make_field(3))
    validate(t)
    _, cls = lower_central_series(t)
    assert cls == 3


def test_class_vector_closed_small():
    assert dict(class_vector_closed(2, 2, 5).items()) == {0: 5, 1: 24}
    assert dict(class_vector_closed(2, 3, 5).items()) == {0: 25, 2: 124}
    assert class_number_closed(2, 3, 5) == 149


def test_class_vector_closed_matches_enumeration():
    for (r, c, p) in [(2, 2, 7), (3, 2, 3), (2, 3, 5), (2, 4, 5)]:
        t = free_table(r, c, make_field(p))
        cc, _ = vectors_theoremB(t)
        assert dict(cc.items()) == \
            dict(class_vector_closed(r, c, p).items()), (r, c, p)


def test_closed_form_rejects_small_characteristic():
    with pytest.raises(ClassTooLarge):
        class_vector_closed(2, 3, 3)
    with pytest.raises(ClassTooLarge):
        char_count_degree_q(2, 3, 3)


def test_char_degrees_closed_and_exception():
    assert char_degrees_closed(2, 4) == {0, 1, 2}
    assert char_degrees_closed(2, 5) == {0, 1, 2, 3}
    assert char_degrees_closed(3, 3) == {0, 1, 2, 3}
    with pytest.raises(ExceptionalCase):
        char_degrees_closed(2, 3)


def test_n_bound_and_exponents():
    assert n_bound(2, 4) == 2
    assert n_bound(2, 5) == 3
    assert n_bound(3, 3) == 3
    assert N_exponent(2, 3) == 3
    # k(r, c, i) is the class-size exponent of a weight-i element; for
    # (2,3) both noncentral weights give q^2, which is why the closed
    # class vector has a single noncentral entry
    assert k_exponent(2, 3, 1) == 2
    assert k_exponent(2, 3, 2) == 2


def test_char_vector_class2_matches_enumeration():
    for (r, p) in [(2, 5), (3, 3), (4, 3)]:
        t = free_table(r, 2, make_field(p))
        _, ch = vectors_theoremB(t)
        assert dict(ch.items()) == \
            dict(char_vector_class2(r, p).items()), (r, p)


def test_char_count_degree_q_matches_fixtures():
    for (r, c) in [(2, 4), (3, 3), (2, 5)]:
        for q in (7, 11):
            assert char_count_degree_q(r, c, q) == \
                fixture_vectors(r, c, q).entries[1], (r, c, q)


def test_fixture_vectors_known_pairs():
    assert dict(fixture_vectors(2, 3, 5).items()) == {0: 25, 1: 124}
    assert dict(fixture_vectors(2, 4, 5).items()) == \
        {0: 25, 1: 5**4 + 5**3 - 5**2 - 1, 2: 5**4 - 5**2 - 5 + 1}
    with pytest.raises(UnknownFixture):
        fixture_vectors(4, 4, 5)


def test_fixture_totals_match_closed_class_number():
    # k = sum of either vector; the fixtures must agree with the class side
    for (r, c) in [(2, 3), (2, 4), (3, 3), (2, 5)]:
        for q in (7, 11, 13):
            assert fixture_vectors(r, c, q).total() == \
                class_number_closed(r, c, q), (r, c, q)


def test_k_exponent_rejects_weights_outside_1_to_c():
    # an assert here let python -O return 4 for k_exponent(2, 3, 0)
    for i in (0, 4):
        with pytest.raises(ValueError):
            k_exponent(2, 3, i)


def test_char_vector_closed_dispatches_on_class():
    for r, q in [(2, 5), (3, 7), (4, 9)]:
        assert char_vector_closed(r, 2, q) == char_vector_class2(r, q)
    for r, c in [(2, 3), (2, 4), (3, 3), (2, 5)]:
        assert char_vector_closed(r, c, 7) == fixture_vectors(r, c, 7)
    with pytest.raises(UnknownFixture):
        char_vector_closed(4, 4, 5)
