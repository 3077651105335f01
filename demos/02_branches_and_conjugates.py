"""Branches, conjugate parametrizations, and difference orders.

A branch is given parametrically as x = t^n, y = a truncated power
series.  Replacing t by w*t for an n-th root of unity w produces the
other parametrizations of the same branch; comparing two branches means
comparing fractional power series in x, which the library does after
rescaling both to a common parameter, in exact arithmetic.
"""

from pathlib import Path

from curvegerm import (
    TruncationExceeded,
    branch,
    conjugate,
    difference_order,
    germ_to_dict,
    load_germ,
)

DATA = Path(__file__).parent / "data"

print("== loading germs from JSON ==")
cusp = load_germ(DATA / "cusp_2_5.json").branches[0]
print("y^2 = x^5 branch:", cusp)
twisted = load_germ(DATA / "twisted_cusp.json").branches[0]
print("branch with a cyclotomic coefficient:", twisted)
print("round-trip dict:", germ_to_dict(load_germ(DATA / "cusp_2_5.json")))

print()
print("== conjugate parametrizations ==")
b = branch(2, [(3, 1), (4, 1)], truncation=8)
print("branch:         ", b)
print("k=1 conjugate:  ", conjugate(b, 1))
print("conjugating twice is the identity:", conjugate(conjugate(b, 1), 1) == b)

print()
print("== difference orders in units of ord_x ==")
axis = branch(1, [], truncation=16)
print("y=0 vs y=x^2:", difference_order(axis, branch(1, [(2, 1)], truncation=16)))
print(
    "x^(3/2) vs -x^(3/2):",
    difference_order(branch(2, [(3, 1)], truncation=8), branch(2, [(3, -1)], truncation=8)),
)
print(
    "different multiplicities rescale to a common parameter:",
    difference_order(
        branch(1, [(1, 1)], truncation=8),
        branch(2, [(3, 1)], truncation=8),
    ),
)

print()
print("== running out of terms is a typed outcome, never a wrong answer ==")
short = branch(2, [(3, 1)], truncation=3)
longer = branch(2, [(3, 1), (4, 1)], truncation=8)
try:
    difference_order(short, longer)
except TruncationExceeded as exc:
    print(f"inconclusive: {exc}")
    print(f"  guaranteed lower bound: ord_x >= {exc.lower_bound}")
