"""
Rank-two-valued B: counting through projective Pfaffian loci
============================================================

When A is square-ish and B(Y) takes only ranks a-2 and a away from 0,
the whole census collapses to one number: n, the count of projective
points where the rank drops.  The 9-dimensional family g_alpha realizes
this with n depending on alpha through the cubic surface cut out by the
Pfaffian-like form det U(Y); sweeping alpha shows several distinct n at
a fixed prime.
"""

from collections import Counter

from pgc import (
    boston_isaacs_table, quadric_table, pfaffian_case_vectors,
    HypothesesFailed, vectors_theoremB, pfaffian,
    build_commutator_matrices,
)

for p in (5, 7):
    ns = {}
    for alpha in range(1, p):
        t = boston_isaacs_table(alpha, p)
        cc, ch, k, report = pfaffian_case_vectors(t)
        ns[alpha] = report.n
        assert k == p**6 + p**3 - 1 + report.n * (p**2 - 1) * (p - 1)
    print(f"p={p}: n_alpha = {ns}   distinct: {sorted(set(ns.values()))}")

# one instance in full, checked against plain enumeration
t = boston_isaacs_table(2, 5)
cc_f, ch_f, k_f, rep = pfaffian_case_vectors(t)
cc_e, ch_e = vectors_theoremB(t)
assert dict(cc_f.items()) == dict(cc_e.items())
assert dict(ch_f.items()) == dict(ch_e.items())
print("g_alpha(2 mod 5):", dict(cc_f.items()), "k =", k_f)

# the 8-dimensional quadric table has the right rank set but fails the
# line condition, so the shortcut refuses it; enumeration still works
tq = quadric_table(3)
A, B = build_commutator_matrices(tq)
fs = tq.ring
quad = lambda y: fs.sub(fs.mul(y[1], y[2]), fs.mul(y[0], y[3]))
from itertools import product
assert all(pfaffian(B.evaluate(y), fs) == quad(y)
           for y in product(range(3), repeat=4))
print("Pf(B(Y)) = Y2 Y3 - Y1 Y4 on all", 3**4, "points")
try:
    pfaffian_case_vectors(tq)
except HypothesesFailed as e:
    print("rejected:", e)
cc, ch = vectors_theoremB(tq)
print("enumerated anyway:", dict(cc.items()), dict(ch.items()))
