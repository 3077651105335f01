"""Characteristic exponents, pairs, and the bi-Lipschitz normal form.

The gcd recursion turns the exponents of a branch into its
characteristic data, a complete topological invariant.  Terms at
non-characteristic exponents can be dropped without changing the
bi-Lipschitz class; that is the normal form.
"""

from pathlib import Path

from curvegerm import (
    TruncationExceeded,
    branch,
    characteristic_data,
    lipschitz_normal_form,
    load_germ,
)

DATA = Path(__file__).parent / "data"


def report(label, b):
    data = characteristic_data(b)
    print(f"{label}")
    print(f"  multiplicity: {b.n}")
    print(f"  beta:  {data.beta}")
    print(f"  e:     {data.e}")
    print(f"  pairs: {data.pairs}   genus: {data.genus}")


report("y^2 = x^5:", load_germ(DATA / "cusp_2_5.json").branches[0])
report("(t^4, t^6 + t^7), genus two:", load_germ(DATA / "genus_two.json").branches[0])
report("smooth graph y = x^2 + x^3:", branch(1, [(2, 1), (3, 1)], truncation=8))

print()
print("== exponents divisible by n never enter the data ==")
# y = x^2 + x^(5/2): the x^2 term is an analytic graph piece
report("(t^2, t^4 + t^5):", branch(2, [(4, 1), (5, 1)], truncation=8))

print()
print("== the normal form keeps characteristic terms only ==")
b = branch(2, [(3, 1), (4, 1), (5, 1)], truncation=8)
print("branch:      ", b)
print("normal form: ", lipschitz_normal_form(b))
print(
    "invariants preserved:",
    characteristic_data(b) == characteristic_data(lipschitz_normal_form(b)),
)

print()
print("== a stuck recursion is reported, not repaired ==")
try:
    characteristic_data(branch(4, [(6, 1)], truncation=6))
except TruncationExceeded as exc:
    print(f"(t^4, t^6): {exc}")
