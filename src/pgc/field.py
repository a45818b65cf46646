"""Exact arithmetic in GF(p^f) with deterministic element enumeration.

Elements are plain residues 0..p-1 when f = 1 and coordinate tuples of
length f (low degree first) when f > 1, so they serialize directly.
The modulus is the lexicographically least monic irreducible, which makes
every downstream enumeration reproducible bit for bit.
"""

from __future__ import annotations


def factorize(n):
    """{p: e} with n = prod p^e, by trial division; {} for n < 2."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # the least strong pseudoprime to them all


def is_prime(n):
    """Deterministic Miller-Rabin on _MR_BASES, exact below _MR_LIMIT
    (about 3.3e24); ValueError from there on."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large to test for primality")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d, d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


def _root(n, f):
    """floor(n^(1/f)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // f)
    while (y := ((f - 1) * x + n // x ** (f - 1)) // f) < x:
        x = y
    return x


def prime_power(q):
    """(p, f) with q = p^f, f >= 1, else ValueError: p is the exact f-th
    root of q that is_prime accepts, f from log2 q down, as is_prime
    refuses a large q even where it is a power of a small prime."""
    for f in range(q.bit_length() - 1, 0, -1) if q > 1 else ():
        p = _root(q, f)
        if p**f == q and is_prime(p):
            return p, f
    raise ValueError(f"{q} is not a prime power")


# polynomials over F_p: tuples of ints, low degree first, no trailing zeros

def _ptrim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(tuple(out))


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a[-1] % p
        if c:
            off = len(a) - 1 - dm
            for i in range(dm):
                a[off + i] = (a[off + i] - c * m[i]) % p
        a.pop()
    return _ptrim(tuple(a))


def _ppowmod(a, n, m, p):
    r = (1,)
    a = _pmod(a, m, p)
    while n:
        if n & 1:
            r = _pmod(_pmul(r, a, p), m, p)
        a = _pmod(_pmul(a, a, p), m, p)
        n >>= 1
    return r


def _pgcd(a, b, p):
    while b:
        # make b monic before reducing
        inv = pow(b[-1], p - 2, p)
        b = tuple(c * inv % p for c in b)
        a, b = b, _pmod(a, b, p)
    return a


def _irreducible(poly, p):
    """poly monic of degree f >= 1 over F_p."""
    f = len(poly) - 1
    if f == 1:
        return True
    if f <= 3:
        # degree 2 or 3 is reducible iff it has a root
        return all(
            sum(c * pow(x, i, p) for i, c in enumerate(poly)) % p != 0
            for x in range(p)
        )
    # Rabin: x^(p^f) = x mod poly, and gcd(x^(p^(f/d)) - x, poly) = 1
    # for every prime divisor d of f
    x = (0, 1)
    if _pmod(_psub(_ppowmod(x, p**f, poly, p), x, p), poly, p):
        return False
    for d in factorize(f):
        g = _pgcd(poly, _psub(_ppowmod(x, p ** (f // d), poly, p), x, p), p)
        if len(g) - 1 > 0:
            return False
    return True


def _psub(a, b, p):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return _ptrim(tuple((x - y) % p for x, y in zip(a, b)))


class FieldSpec:
    """GF(p^f). Carries all arithmetic; immutable once constructed."""

    def __init__(self, p, f, modulus):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = modulus  # None when f = 1, else tuple of f+1 coeffs, monic
        self._zero = 0 if f == 1 else (0,) * f
        self._one = 1 if f == 1 else (1,) + (0,) * (f - 1)
        if f > 1:
            # t^f = -(m_0 + m_1 t + ... + m_{f-1} t^{f-1})
            self._red = tuple((-c) % p for c in modulus[:f])

    def __repr__(self):
        if self.f == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.f}; modulus={list(self.modulus)})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.f, self.modulus))

    # -- element encoding ------------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        """n in [0, q): base-p digits, low degree first."""
        if not 0 <= n < self.q:
            raise ValueError(f"{n} is not in [0, {self.q})")
        if self.f == 1:
            return n
        return tuple(n // self.p**k % self.p for k in range(self.f))

    def to_int(self, x):
        if self.f == 1:
            return x % self.p
        return sum(c * self.p**k for k, c in enumerate(x))

    def embed(self, n):
        """Image of the integer n under Z -> GF(p^f)."""
        n %= self.p
        return n if self.f == 1 else (n,) + (0,) * (self.f - 1)

    # -- arithmetic ------------------------------------------------------

    def add(self, x, y):
        if self.f == 1:
            return (x + y) % self.p
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        if self.f == 1:
            return (-x) % self.p
        return tuple((-a) % self.p for a in x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        p, f = self.p, self.f
        if f == 1:
            return (x * y) % p
        prod = [0] * (2 * f - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod[i + j] = (prod[i + j] + a * b) % p
        for k in range(2 * f - 2, f - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i, r in enumerate(self._red):
                    prod[k - f + i] = (prod[k - f + i] + c * r) % p
        return tuple(prod[:f])

    def power(self, x, n):
        r = self.one()
        while n:
            if n & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            n >>= 1
        return r

    def inv(self, x):
        if x == self._zero:
            raise ZeroDivisionError("inversion of zero field element")
        if self.f == 1:
            return pow(x, self.p - 2, self.p)
        return self.power(x, self.q - 2)

    def is_zero(self, x):
        return x == self._zero

    # -- enumeration -----------------------------------------------------

    def elements(self):
        """All q elements, lexicographic on coords high degree first.

        Starts 0, 1, then (for f > 1) t, t+1, ...
        """
        return [self.from_int(n) for n in range(self.q)]

    def fmt(self, x):
        """Serialization: bare int for f = 1, (a0,a1,...) otherwise."""
        if self.f == 1:
            return str(x)
        return "(" + ",".join(str(c) for c in x) + ")"


def make_field(p, f=1):
    """FieldSpec for GF(p^f) with the lexicographically least monic
    irreducible modulus, candidates ordered by (a_{f-1}, ..., a_0)."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if f < 1:
        raise ValueError(f"extension degree f = {f} must be >= 1")
    if f == 1:
        return FieldSpec(p, 1, None)
    for m in range(p**f):
        # a_i is base-p digit i of m: iterating the integer ascending orders
        # candidates by (a_{f-1}, ..., a_0) left to right
        poly = tuple(m // p**i % p for i in range(f)) + (1,)
        if _irreducible(poly, p):
            return FieldSpec(p, f, poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable
