"""Pairwise contact exponents and intersection multiplicities of branches.

The contact of two distinct analytic branches is their coincidence
exponent: the largest order in x at which some pair of Newton-Puiseux
parametrizations agrees.  The walk that validates a germ finds its
contact tree, the germ's one record of every pair's contact.  The
intersection multiplicity follows by Max Noether's formula
(Casas-Alvero, *Singularities of Plane Curves*, 2000): with contact c,
multiplicities n1 and n2, and beta_q the last characteristic exponent
of the first branch at or below n1*c,
I = n2/n1 * (sum_{i<=q} (e_{i-1} - e_i) * beta_i + e_q * n1 * c).
Only exponents up to the contact are read, so a branch whose full
characteristic data lies beyond its truncation still reports.  I is
always a positive integer; that is checked, so truncation bugs fail
loudly with ConsistencyError.  Fractions are made only for the values
handed out, one per distinct contact: :func:`contact`,
:class:`ContactReport` and its JSON.  The report builds each from the
contact's reduced ints (``cyclotomic._fraction``), not through
``Fraction``'s constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from curvegerm.cyclotomic import _fraction
from curvegerm.invariants import _steps
from curvegerm.puiseux import (
    ConsistencyError,
    CurveGerm,
    PuiseuxBranch,
    TruncationExceeded,
    _contact_tree,
    _meetings,
)


def _noether(n1: int, steps, n2: int, p: int, den: int) -> int:
    """I(b1, b2) by Noether's formula: b1 of multiplicity n1 with gcd steps
    ``steps`` (:func:`curvegerm.invariants._steps`), b2 of multiplicity n2,
    at contact p/den."""
    total, e = 0, n1
    for beta, g in steps:
        if beta * den > p * n1:
            break
        total += (e - g) * beta
        e = g
    num, d = n2 * (total * den + e * p * n1), n1 * den
    if num % d or num <= 0:
        raise ConsistencyError(
            f"intersection multiplicity came out as {Fraction(num, d)}, not a positive "
            "integer: internal bug or insufficient truncation"
        )
    return num // d


def contact(b1: PuiseuxBranch, b2: PuiseuxBranch) -> Fraction:
    """Contact exponent of two distinct branches: their maximal order of
    agreement over all conjugates.

    This is the germ's walk (:func:`curvegerm.puiseux._contact_tree`) on
    two branches.  Raises TruncationExceeded when any conjugate
    comparison is inconclusive, since the true maximum might then be
    hidden beyond the truncation.

    Coefficients from different fields are compared pair by pair, each
    pair in the smallest field that holds both:

    >>> from curvegerm import branch, zeta
    >>> contact(branch(2, [(4, 1), (5, 1)]), branch(3, [(6, 1), (7, zeta(3))]))
    Fraction(7, 3)
    """
    n, tree, blocked = _contact_tree((b1, b2))
    if blocked:
        limit, left, _, _ = blocked
        raise TruncationExceeded(
            f"contact inconclusive: conjugation(s) {', '.join(map(str, left))} agree "
            "within the known terms",
            # every conjugate that parted did so at or below the limit
            lower_bound=Fraction(limit + 1, n),
        )
    return Fraction(tree[0][0], n)


def intersection_multiplicity(b1: PuiseuxBranch, b2: PuiseuxBranch) -> int:
    """Local intersection number of two distinct branches at the origin:
    Noether's formula at their :func:`contact`, whose TruncationExceeded
    it passes on."""
    c = contact(b1, b2)
    return _noether(b1.n, _steps(b1), b2.n, c.numerator, c.denominator)


@dataclass(frozen=True)
class ContactReport:
    """Symmetric pairwise contact and intersection matrices of a germ.

    Diagonals are unset (None); contact entries are exact rationals in
    units of ord_x and are always at least 1.  The constructor proves
    both matrices symmetric, then checks the bound once per unordered
    pair; so does ``dataclasses.replace``.  :func:`contact_report` does
    not call it: it checks the same facts where it makes them.
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
        # symmetric, so the pairs above the diagonal are all the pairs
        _check_contacts(self.contact)

    def to_dict(self) -> dict:
        return {
            "branch_count": self.branch_count,
            "contact": [
                [None if v is None else str(v) for v in row] for row in self.contact
            ],
            "intersection": [list(row) for row in self.intersection],
        }


def _check_contacts(cont) -> None:
    """Raise at the first cell above the diagonal whose contact is below 1."""
    r = len(cont)
    for i in range(r):
        for j in range(i + 1, r):
            if cont[i][j] < 1:
                raise ConsistencyError(
                    f"contact[{i}][{j}] = {cont[i][j]} < 1; "
                    "branches do not share the parametrization form"
                )


def contact_report(g: CurveGerm) -> ContactReport:
    """Fill both pairwise matrices for all distinct branch pairs of the germ.

    Reads each pair's exact contact off the germ's contact tree, so no
    pair is compared again.  Each branch's gcd steps are taken once, each
    distinct contact becomes one Fraction, shared by its cells, and
    Noether's formula runs once per meeting of the tree and pair of
    branch kinds (multiplicity and steps), which checks each value it
    makes.  The report is built without its constructor, whose checks
    hold here by construction or are made once: the tree meets every
    pair exactly once, and every contact level is at least 1.
    """
    (den, tree), bs = g._tree, g.branches
    r = len(bs)
    # a branch's kind, its multiplicity and gcd steps, is all that
    # Noether's formula reads of it
    kinds: dict = {}
    kind = [kinds.setdefault((b.n, tuple(_steps(b))), len(kinds)) for b in bs]
    forms, width = list(kinds), len(kinds)
    fractions: dict[int, Fraction] = {}
    cont: list[list[Fraction | None]] = [[None] * r for _ in range(r)]
    inter: list[list[int | None]] = [[None] * r for _ in range(r)]
    met = 0
    for p, gathered, child in _meetings(tree):
        met += len(gathered) * len(child)
        if p not in fractions:
            common = math.gcd(p, den)
            fractions[p] = _fraction(p // common, den // common)
        c, known = fractions[p], {}
        # each pair in index order: Noether's formula reads the first's steps
        for a in gathered:
            for b in child:
                i, j = (a, b) if a < b else (b, a)
                key = kind[i] * width + kind[j]
                n = known.get(key)
                if n is None:
                    (n1, steps), (n2, _) = forms[kind[i]], forms[kind[j]]
                    n = known[key] = _noether(n1, steps, n2, p, den)
                # a cell and its mirror in one statement, and never a
                # diagonal cell: both matrices are symmetric with an unset
                # diagonal by construction
                cont[i][j] = cont[j][i] = c
                inter[i][j] = inter[j][i] = n
    if met != r * (r - 1) // 2:
        raise ConsistencyError(
            f"the contact tree meets {met} branch pairs, not all {r * (r - 1) // 2}"
        )
    if any(p < den for p in fractions):
        _check_contacts(cont)
    report = object.__new__(ContactReport)
    report.__dict__.update(
        branch_count=r,
        # lists, not generators, for the reason given at PuiseuxBranch.exponents
        contact=tuple([tuple(row) for row in cont]),
        intersection=tuple([tuple(row) for row in inter]),
    )
    return report
