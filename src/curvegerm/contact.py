"""Pairwise contact exponents and intersection multiplicities of branches.

The contact of two distinct analytic branches equals their coincidence
exponent: the largest order in x at which some pair of Newton-Puiseux
parametrizations agrees, maximized over conjugates.  The intersection
multiplicity is n1 times the sum of the difference orders against all n2
conjugates of the second branch.

Both numbers come from one walk over the pair's terms, which gives the
order against every conjugate as an int s-exponent over n = lcm(n1, n2):
contact is the largest over n, and the intersection number is n1 times
their sum over n.  That quotient is always a positive integer; the
division is checked, so truncation bugs fail loudly with
ConsistencyError.  For a germ, the report reads the walks that validated
it, kept in ``CurveGerm._sweeps`` as ``(n, orders)`` per pair.  Fractions
are made only for the values handed out: :func:`contact`,
:class:`ContactReport` and its JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from curvegerm.puiseux import (
    ConsistencyError,
    CurveGerm,
    PuiseuxBranch,
    TruncationExceeded,
    _inconclusive,
    _walk,
)


def _intersection_of(n1: int, n: int, orders) -> int:
    """Intersection number read off one sweep of s-exponents over n:
    n1 times their sum over n."""
    total = n1 * sum(orders)
    if total % n or total <= 0:
        raise ConsistencyError(
            f"intersection multiplicity came out as {Fraction(total, n)}, not a positive "
            "integer: internal bug or insufficient truncation"
        )
    return total // n


def contact(b1: PuiseuxBranch, b2: PuiseuxBranch) -> Fraction:
    """Contact exponent of two distinct branches: their maximal order of
    agreement over all conjugates.

    Raises TruncationExceeded when any conjugate comparison is
    inconclusive, since the true maximum might then be hidden beyond the
    truncation.

    Coefficients from different fields are compared pair by pair, each
    pair in the smallest field that holds both and zeta_n2:

    >>> from curvegerm import branch, zeta
    >>> contact(branch(2, [(4, 1), (5, 1)]), branch(3, [(6, 1), (7, zeta(3))]))
    Fraction(7, 3)
    """
    n, limit, orders = _walk(b1, b2, range(b2.n))
    blocked = [str(k) for k, e in enumerate(orders) if e is None]
    if blocked:
        raise TruncationExceeded(
            f"contact inconclusive: conjugation(s) {', '.join(blocked)} agree within the "
            "known terms",
            # every order the walk found lies at or below the limit
            lower_bound=Fraction(limit + 1, n),
        )
    return Fraction(max(orders), n)


def intersection_multiplicity(b1: PuiseuxBranch, b2: PuiseuxBranch) -> int:
    """Local intersection number of two distinct branches at the origin."""
    n, limit, orders = _walk(b1, b2, range(b2.n))
    if None in orders:
        raise _inconclusive(n, limit)
    return _intersection_of(b1.n, n, orders)


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
                raise ConsistencyError(f"{name} matrix must be {r}x{r}")
            for i in range(r):
                if mat[i][i] is not None:
                    raise ConsistencyError(f"{name} diagonal must be unset")
                for j in range(i + 1, r):
                    if mat[i][j] != mat[j][i]:
                        raise ConsistencyError(f"{name} matrix must be symmetric")
        for i in range(r):
            for j in range(r):
                if i != j and self.contact[i][j] < 1:
                    raise ConsistencyError(
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

    Reads the sweeps that validated the germ; every order there is
    exact, so no pair is compared again.
    """
    r = len(g.branches)
    cont: list[list[Fraction | None]] = [[None] * r for _ in range(r)]
    inter: list[list[int | None]] = [[None] * r for _ in range(r)]
    for (i, j), (n, orders) in g._sweeps.items():
        cont[i][j] = cont[j][i] = Fraction(max(orders), n)
        inter[i][j] = inter[j][i] = _intersection_of(g.branches[i].n, n, orders)
    return ContactReport(
        r,
        # lists, not generators, for the reason given at PuiseuxBranch.exponents
        tuple([tuple(row) for row in cont]),
        tuple([tuple(row) for row in inter]),
    )
