"""GF(p^f) arithmetic on int scalars (f = 1) and coefficient tuples."""

import pytest
from hypothesis import given, strategies as st

from pgc import make_field, is_prime
from pgc.field import _irreducible, factorize, prime_power


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)
    assert [n for n in range(10**5) if is_prime(n)] == \
        [n for n in range(10**5) if factorize(n) == {n: 1}]


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # the least strong pseudoprimes to the first t prime bases, t = 1..12
    # (t = 7, 8 and t = 9..11 share theirs)
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(n), n
    assert not is_prime(1000000007 * 1000000009)  # a 19-digit semiprime
    for n in (2**31 - 1, 2**61 - 1, 2**64 - 59, 2**79 - 67):
        assert is_prime(n), n
    with pytest.raises(ValueError, match="too large"):
        is_prime(3317044064679887385961981)  # the first the bases miss


def test_factorize_and_prime_power():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(169) == {13: 2}
    assert [prime_power(q) for q in (2, 9, 125, 4096)] == \
        [(2, 1), (3, 2), (5, 3), (2, 12)]
    for q in (0, 1, 6, 15, 100):
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power(q)


def test_prime_power_takes_integer_roots():
    # the factorization of q is never needed: p is an exact f-th root of q
    assert [prime_power(q) for q in (3**60, 2**61 - 1, (2**61 - 1) ** 2)] == \
        [(3, 60), (2**61 - 1, 1), (2**61 - 1, 2)]
    assert [q for q in range(3000) if _is_prime_power(q)] == \
        [q for q in range(3000) if len(factorize(q)) == 1]
    for q in (12, 36, 1000000007 * 1000000009):
        with pytest.raises(ValueError):
            prime_power(q)


def _is_prime_power(q):
    try:
        p, f = prime_power(q)
    except ValueError:
        return False
    assert p**f == q and factorize(p) == {p: 1}
    return True


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(5, 0)


def test_prime_field_is_mod_p():
    fs = make_field(7)
    assert fs.q == 7 and fs.f == 1 and fs.modulus is None
    assert fs.embed(10) == 3
    assert fs.mul(3, 5) == 1
    assert fs.inv(3) == 5
    assert sorted(fs.elements()) == list(range(7))


def test_extension_modulus_is_irreducible():
    for p, f in [(3, 2), (5, 2), (3, 3), (2, 4), (7, 2)]:
        fs = make_field(p, f)
        assert len(fs.modulus) == f + 1 and fs.modulus[f] == 1
        assert _irreducible(fs.modulus, p)
        assert len(list(fs.elements())) == p**f


def test_gf9_known_table():
    fs = make_field(3, 2)
    # t^2 reduces via the stored modulus; squaring the generator stays in range
    t = fs.from_int(3)          # the degree-1 basis element
    sq = fs.mul(t, t)
    assert sq in set(fs.elements())
    # multiplicative group has order 8: some element has order 8
    orders = set()
    for x in fs.elements():
        if fs.is_zero(x):
            continue
        n, y = 1, x
        while y != fs.one():
            y = fs.mul(y, x)
            n += 1
        orders.add(n)
    assert max(orders) == 8


@given(st.sampled_from([(3, 2), (5, 2), (2, 3)]), st.data())
def test_field_axioms_random(pf, data):
    fs = make_field(*pf)
    els = list(fs.elements())
    x = data.draw(st.sampled_from(els))
    y = data.draw(st.sampled_from(els))
    z = data.draw(st.sampled_from(els))
    assert fs.add(x, y) == fs.add(y, x)
    assert fs.mul(x, y) == fs.mul(y, x)
    assert fs.mul(x, fs.add(y, z)) == fs.add(fs.mul(x, y), fs.mul(x, z))
    assert fs.add(x, fs.neg(x)) == fs.zero()
    if not fs.is_zero(x):
        assert fs.mul(x, fs.inv(x)) == fs.one()


def test_from_int_is_a_bijection():
    fs = make_field(5, 2)
    seen = {fs.from_int(n) for n in range(25)}
    assert len(seen) == 25


def test_from_int_rejects_out_of_range():
    # an assert here let python -O return (0, 0) for 9 in GF(9)
    fs = make_field(3, 2)
    for n in (9, -1):
        with pytest.raises(ValueError):
            fs.from_int(n)
    with pytest.raises(ValueError):
        make_field(5).from_int(5)
