"""Numeric contact estimates and the distortion a Holder map can cause.

The metric contact is a limit of log-gap over log-radius; here it is
estimated by sampling arcs on geometric radius grids and regressing.
The estimates land on the exact coincidence values, which is the
empirical justification for computing contact symbolically.  A radial
power map p -> p*|p|^(beta-1) is the model bi-(1/beta)-Holder map; the
estimated contacts before and after it obey the expected squeeze.
"""

from fractions import Fraction

from curvegerm import (
    branch,
    check_contact_distortion,
    contact,
    default_branch_grid,
    estimate_branch_contact,
    estimate_contact,
    geometric_grid,
    sample_branch_arc,
    witness_arcs,
)


def axis():
    return branch(1, [], truncation=32)


print("== numeric vs exact contact ==")
pairs = [
    ("y=x vs y=-x", branch(1, [(1, 1)], truncation=8), branch(1, [(1, -1)], truncation=8)),
    ("y=0 vs y^2=x^3", axis(), branch(2, [(3, 1)], truncation=8)),
    ("y=0 vs y=x^2", axis(), branch(1, [(2, 1)], truncation=8)),
    ("y=0 vs y^2=x^5", axis(), branch(2, [(5, 1)], truncation=8)),
    ("y=0 vs y=x^3", axis(), branch(1, [(3, 1)], truncation=8)),
]
grid = geometric_grid(1e-1, 1e-4, 16)
for label, b1, b2 in pairs:
    est = estimate_branch_contact(b1, b2, grid)
    print(
        f"  {label:<18} exact {str(contact(b1, b2)):>4}   "
        f"estimated {est.slope:6.3f}   r^2 {est.r_squared:.6f}"
    )

print()
print("== distortion under the radial map, alpha = 1/beta ==")
sample_grid = geometric_grid(1e-1, 1e-3, 16)
a = sample_branch_arc(axis(), 0, 0.0, sample_grid)
b = sample_branch_arc(branch(1, [(2, 1)], truncation=8), 0, 0.0, sample_grid)
for beta in (1.0, 1.25, 2.0):
    rep = check_contact_distortion(a, b, beta, sample_grid)
    print(
        f"  beta {beta:<5} contact {rep.source.slope:5.3f} -> {rep.image.slope:5.3f}"
        f"   expected image {(beta + 1) / beta:5.3f}   bounds hold: {rep.passed}"
    )
print("  (the image contact tracks (beta+1)/beta, squeezed between")
print("   alpha^2 * c and c / alpha^2 as required)")

print()
print("== witness arcs see the characteristic exponent metrically ==")
cusp = branch(2, [(5, 1)], truncation=8)
radii = default_branch_grid(cusp)
base, quarter, twisted, _ = witness_arcs(cusp, 1, radii)
twist = estimate_contact(base, twisted, radii)
turn = estimate_contact(base, quarter, radii)
print(f"  base vs conjugate twist: slope {twist.slope:.4f}  (expect {Fraction(5, 2)})")
print(f"  base vs quarter turn:    slope {turn.slope:.4f}  (expect 1)")
print("  The gap between the base arc and its twisted conjugate decays like")
print("  r^(5/2) while rotated arcs separate at order r; the wedge between")
print("  those two exponents is what obstructs high-exponent Holder maps.")
