"""Contact exponents and intersection multiplicities of branch pairs.

The contact of two branches is the largest order in x at which their
fractional power series agree, over all conjugate parametrizations.
The intersection multiplicity is recovered from the same difference
orders: n1 times their sum over all conjugates of the second branch.
The result must be a positive integer; the library asserts that, so an
insufficient truncation fails loudly instead of producing a plausible
wrong number.
"""

from pathlib import Path

from curvegerm import (
    branch,
    contact,
    contact_report,
    difference_order,
    germ,
    intersection_multiplicity,
    load_germ,
)

DATA = Path(__file__).parent / "data"

axis = branch(1, [], truncation=32, field_order=2)
cusp3 = branch(2, [(3, 1)], truncation=12, field_order=2)
cusp5 = branch(2, [(5, 1)], truncation=12, field_order=2)

print("== two-branch invariants ==")
print("contact(y=0, y^2=x^3):      ", contact(axis, cusp3))
print("intersection(y=0, y^2=x^3): ", intersection_multiplicity(axis, cusp3))
print("contact(y=0, y^2=x^5):      ", contact(axis, cusp5))
print("intersection(y=0, y^2=x^5): ", intersection_multiplicity(axis, cusp5))
print("contact(y^2=x^3, y^2=x^5):  ", contact(cusp3, cusp5))

print()
print("== the conjugate sweep matters ==")
b1 = branch(2, [(3, 1)], truncation=12)
b2 = branch(2, [(3, -1), (4, 1)], truncation=12)
print("x^(3/2) vs -x^(3/2) + x^2")
print("  order against conjugate 0:", difference_order(b1, b2, 0))
print("  contact:                  ", contact(b1, b2))
print("  (the k=1 conjugate of the second branch matches the leading term,")
print("   so the contact is 2 rather than 3/2)")

print()
print("== whole-germ report ==")
g = load_germ(DATA / "axis_and_parabola.json")
report = contact_report(g)
print("germ {y=0, y=x^2}")
print("  contact matrix:     ", report.contact)
print("  intersection matrix:", report.intersection)

three = germ(
    [
        branch(1, [], truncation=16),
        branch(1, [(2, 1)], truncation=16),
        branch(1, [(3, 1)], truncation=16),
    ]
)
report = contact_report(three)
print("germ {y=0, y=x^2, y=x^3}")
for i in range(3):
    for j in range(i + 1, 3):
        print(
            f"  pair ({i},{j}): contact {report.contact[i][j]}, "
            f"intersection {report.intersection[i][j]}"
        )
