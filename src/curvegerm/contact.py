"""Pairwise contact exponents and intersection multiplicities of branches.

The contact of two distinct analytic branches equals their coincidence
exponent: the largest order in x at which some pair of Newton-Puiseux
parametrizations agrees, maximized over conjugates.  The intersection
multiplicity is n1 times the sum of the difference orders against all n2
conjugates of the second branch; it is always a positive integer, and
integrality is asserted so truncation bugs fail loudly.  Both numbers
come from one conjugate sweep; for a germ, the report reads the sweep
that validated it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from curvegerm.puiseux import (
    CurveGerm,
    PuiseuxBranch,
    TruncationExceeded,
    difference_orders,
)


def _intersection_of(n1: int, orders) -> int:
    """Intersection number read off one sweep: n1 times the sum."""
    for v in orders:
        if isinstance(v, TruncationExceeded):
            raise v
    total = n1 * sum(orders)
    if total.denominator != 1 or total <= 0:
        raise RuntimeError(
            f"intersection multiplicity came out as {total}, not a positive "
            "integer: internal bug or insufficient truncation"
        )
    return int(total)


def contact(b1: PuiseuxBranch, b2: PuiseuxBranch) -> Fraction:
    """Contact exponent of two distinct branches: their maximal order of
    agreement over all conjugates.

    Raises TruncationExceeded when any conjugate comparison is
    inconclusive, since the true maximum might then be hidden beyond the
    truncation.
    """
    orders = difference_orders(b1, b2)
    values = [v for v in orders if isinstance(v, Fraction)]
    blocked = [
        (k, v.lower_bound) for k, v in enumerate(orders) if isinstance(v, TruncationExceeded)
    ]
    if blocked:
        bounds = [lb for _, lb in blocked if lb is not None]
        which = ", ".join(str(k) for k, _ in blocked)
        raise TruncationExceeded(
            f"contact inconclusive: conjugation(s) {which} agree within the known terms",
            lower_bound=max(bounds + values) if bounds else None,
        )
    return max(values)


def intersection_multiplicity(b1: PuiseuxBranch, b2: PuiseuxBranch) -> int:
    """Local intersection number of two distinct branches at the origin."""
    return _intersection_of(b1.n, difference_orders(b1, b2))


@dataclass(frozen=True)
class ContactReport:
    """Symmetric pairwise contact and intersection matrices of a germ.

    Diagonals are unset (None); contact entries are exact rationals in
    units of ord_x and are always at least 1.
    """

    branch_count: int
    contact: tuple[tuple[Fraction | None, ...], ...]
    intersection: tuple[tuple[int | None, ...], ...]

    def __post_init__(self):
        r = self.branch_count
        for name, mat in (("contact", self.contact), ("intersection", self.intersection)):
            if len(mat) != r or any(len(row) != r for row in mat):
                raise ValueError(f"{name} matrix must be {r}x{r}")
            for i in range(r):
                if mat[i][i] is not None:
                    raise ValueError(f"{name} diagonal must be unset")
                for j in range(i + 1, r):
                    if mat[i][j] != mat[j][i]:
                        raise ValueError(f"{name} matrix must be symmetric")
        for i in range(r):
            for j in range(r):
                if i != j and self.contact[i][j] < 1:
                    raise ValueError(
                        f"contact[{i}][{j}] = {self.contact[i][j]} < 1; "
                        "branches do not share the parametrization form"
                    )

    def to_dict(self) -> dict:
        return {
            "branch_count": self.branch_count,
            "contact": [
                [None if v is None else str(v) for v in row] for row in self.contact
            ],
            "intersection": [list(row) for row in self.intersection],
        }


def contact_report(g: CurveGerm) -> ContactReport:
    """Fill both pairwise matrices for all distinct branch pairs of the germ.

    Reads the conjugate sweeps that validated the germ; every entry there
    is exact, so no pair is compared again.
    """
    r = len(g.branches)
    cont: list[list[Fraction | None]] = [[None] * r for _ in range(r)]
    inter: list[list[int | None]] = [[None] * r for _ in range(r)]
    for (i, j), orders in g._sweeps.items():
        cont[i][j] = cont[j][i] = max(orders)
        inter[i][j] = inter[j][i] = _intersection_of(g.branches[i].n, orders)
    return ContactReport(
        r,
        tuple(tuple(row) for row in cont),
        tuple(tuple(row) for row in inter),
    )
