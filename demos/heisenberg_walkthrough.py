"""
Heisenberg walkthrough
======================

The 3-dimensional Lie ring with [e1, e2] = e3 over GF(q), i.e. the Lie
ring of the Heisenberg group of order q^3.  We build it from a `.lie`
text, look at the two matrices, and read off the class/character
vectors.  Expected: q central classes, q^2 - 1 classes of size q,
q^2 linear characters, q - 1 characters of degree q, k = q^2 + q - 1.
"""

from pgc import make_field, adapt_basis, build_commutator_matrices, \
    vectors_theoremB, class_number
from pgc.cli import parse_lie, emit_lie

HEIS = """\
name heisenberg
ring p=5
dim 3
bracket 1 2 : 1 3
"""

t = parse_lie(HEIS)
print("parsed", t.name, "over", t.ring)
assert emit_lie(t) == HEIS  # the canonical format round-trips

# adapt_basis reads the coordinates off echelon pivots: e1, e2 span g
# modulo the centre, and e3 is the coordinate on g'
front, tail = adapt_basis(t)
assert (front, tail) == ([0, 1], [2])
A, B = build_commutator_matrices(t)
print("a =", A.nvars, " b =", B.nvars)
print("A(X) =")
print(A)
print("B(Y) =")
print(B)

# rank loci: A(x) has rank 0 only at x = 0, rank 1 everywhere else;
# B(y) is the generic 2x2 skew matrix, rank 2 off the origin.
for q in (3, 5, 7, 9, 25):
    fs = make_field(*((q, 1) if q in (3, 5, 7) else ((3, 2) if q == 9 else (5, 2))))
    tq = parse_lie(HEIS.replace("p=5", f"p={fs.p}" + (f" f={fs.f}" if fs.f > 1 else "")))
    cc, ch = vectors_theoremB(tq)
    k, s = class_number(tq)
    print(f"q={q:>2}  cc={dict(cc.items())}  ch={dict(ch.items())}  k={k}")
    assert k == q**2 + q - 1
