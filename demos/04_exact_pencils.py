"""Exact rational pencils and the tangent-space codimension oracle.

Realizing a structure as a concrete pencil A + lambda*B with rational
entries gives an independent way to compute the orbit codimension: take
the derivative of the group action (X, Y) |-> (X*A + A*Y, X*B + B*Y) and
compute its corank by exact integer elimination.  No rounding is
involved anywhere, so agreement with the symbolic formula is exact.
"""

from fractions import Fraction

from kcforbits import (
    codimension,
    finite,
    normal_rank,
    parse_structure,
    random_equivalence,
    rank_of,
    realize,
    tangent_codimension,
)


def show(P, name):
    print(f"{name}: {P.m}x{P.n}")
    for label, mat in (("A", P.a), ("B", P.b)):
        for i, row in enumerate(mat):
            prefix = f"  {label} = " if i == 0 else "      "
            print(prefix + "[" + "  ".join(f"{x}" for x in row) + "]")


K = parse_structure("J(2;e1) + L(1)")
P = realize(K, {finite(1): Fraction(5)})
show(P, f"realization of {K} with e1 -> 5")
print(f"  normal rank = {normal_rank(P)} (structure says {rank_of(K)})")
print(f"  tangent codim = {tangent_codimension(P)} (formula says {codimension(K)})")
print()

# Strict equivalence moves the pencil around its orbit; every invariant
# computed through the oracle stays put.
moved = random_equivalence(P, seed=7)
show(moved, "after a random strict equivalence (seed 7)")
print(f"  tangent codim = {tangent_codimension(moved)}")
print(f"  normal rank   = {normal_rank(moved)}")
print()

# The oracle agrees with the formula on every structure of a given size.
from kcforbits import enumerate_structures

print("formula vs oracle on all canonical 2x3 structures:")
for K in enumerate_structures(2, 3):
    oracle = tangent_codimension(realize(K))
    mark = "ok" if oracle == codimension(K) else "MISMATCH"
    print(f"  {str(K):34s} formula={codimension(K):2d} oracle={oracle:2d}  {mark}")
