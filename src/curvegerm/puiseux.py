"""Truncated Newton-Puiseux parametrizations of plane branches.

A branch is the germ at the origin of the image of t -> (t^n, y(t)) with
y(t) = sum a_m t^m, a_m in Q(zeta_N).  Only finitely many terms are
known: exponents above the stated truncation are unspecified, and every
comparison that runs out of known terms raises :class:`TruncationExceeded`
with the best available lower bound instead of guessing.

The other Newton-Puiseux parametrizations of the same branch arise by
substituting t -> w*t with w an n-th root of unity (:func:`conjugate`).
A germ is a list of branches no two of which are conjugate.

Coefficients are restricted to cyclotomic rationals.  The restriction
keeps zero testing exact, which order computations require, and covers
every root-of-unity phenomenon conjugation can produce.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from curvegerm.cyclotomic import CyclotomicNumber, zeta


class GermValidationError(ValueError):
    """The input does not describe a valid reduced germ."""


class TruncationExceeded(Exception):
    """A computation is inconclusive within the known terms.

    Not a bug: callers must either supply more terms or handle the
    outcome.  ``lower_bound``, when set, is an exact lower bound, in
    units of ord_x, for the quantity that was asked for.
    """

    def __init__(self, message: str, lower_bound: Fraction | None = None):
        super().__init__(message)
        self.lower_bound = lower_bound


@dataclass(frozen=True)
class PuiseuxBranch:
    """One branch: x = t^n, y = sum of coeff * t^exp, known up to the truncation.

    n:           order of the x-coordinate; the multiplicity of the branch.
    terms:       ((exp, coeff), ...) with strictly increasing positive
                 exponents and nonzero cyclotomic coefficients.
    truncation:  exponents above this bound are unknown.
    field_order: the shared cyclotomic order N; n must divide it so the
                 conjugating roots of unity live in the same field.
    """

    n: int
    terms: tuple[tuple[int, CyclotomicNumber], ...]
    truncation: int
    field_order: int

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((m, c) for m, c in self.terms))
        if self.n < 1:
            raise GermValidationError("multiplicity n must be a positive integer")
        if self.truncation < 1:
            raise GermValidationError("truncation must be a positive integer")
        if self.field_order < 1 or self.field_order % self.n:
            raise GermValidationError(
                f"field order {self.field_order} must be a positive multiple of n={self.n}"
            )
        last = 0
        for m, coeff in self.terms:
            if not isinstance(m, int) or m <= last:
                raise GermValidationError(
                    "term exponents must be strictly increasing positive integers"
                )
            if m > self.truncation:
                raise GermValidationError(
                    f"term exponent {m} exceeds the truncation {self.truncation}"
                )
            if not isinstance(coeff, CyclotomicNumber) or coeff.order != self.field_order:
                raise GermValidationError(
                    f"coefficient at exponent {m} must live in Q(zeta_{self.field_order})"
                )
            if coeff.is_zero():
                raise GermValidationError(f"zero coefficient listed at exponent {m}")
            last = m
        if self.terms and self.terms[0][0] < self.n:
            raise GermValidationError(
                f"leading exponent {self.terms[0][0]} is below n={self.n}: n would not "
                "be the multiplicity (branch tangent to the y-axis); swap coordinates"
            )

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.terms)

    def __repr__(self):
        body = " + ".join(f"({c})*t^{m}" for m, c in self.terms) or "0"
        return (
            f"PuiseuxBranch(x=t^{self.n}, y={body}, "
            f"truncation={self.truncation}, field_order={self.field_order})"
        )


def branch(n, terms=(), truncation=None, field_order=None) -> PuiseuxBranch:
    """Convenience constructor accepting int/Fraction or cyclotomic coefficients.

    The field order defaults to the lcm of n and the orders of any
    cyclotomic coefficients; the truncation defaults to the largest
    exponent and must be given explicitly for a zero series.
    """
    terms = [(m, c) for m, c in terms]
    orders = [n] + [
        c.order for _, c in terms if isinstance(c, CyclotomicNumber)
    ]
    if field_order is None:
        field_order = math.lcm(*orders)
    if truncation is None:
        if not terms:
            raise ValueError("truncation is required for a branch with no known terms")
        truncation = max(m for m, _ in terms)
    lifted = []
    for m, c in terms:
        if isinstance(c, CyclotomicNumber):
            lifted.append((m, c.lift(field_order)))
        else:
            lifted.append((m, CyclotomicNumber.from_rational(field_order, c)))
    return PuiseuxBranch(n, tuple(lifted), truncation, field_order)


def conjugate(b: PuiseuxBranch, k: int) -> PuiseuxBranch:
    """The parametrization of the same branch with t replaced by zeta_n^k * t."""
    k %= b.n
    if k == 0:
        return b
    step = b.field_order // b.n
    terms = tuple((m, c.rotate(k * m * step)) for m, c in b.terms)
    return PuiseuxBranch(b.n, terms, b.truncation, b.field_order)


def difference_order(b1: PuiseuxBranch, b2: PuiseuxBranch, k: int = 0) -> Fraction:
    """Order in x at which b1 and the k-th conjugate of b2 first differ.

    Both series are rescaled to the common parameter s with x = s^lcm(n1,n2)
    using integer exponent arithmetic only; the result is the smallest
    differing s-exponent divided by the lcm.  Only a coefficient about to
    be compared is rotated; the conjugate is never built.  Raises
    TruncationExceeded, carrying the lower bound (limit+1)/lcm, when
    every comparable term agrees.
    """
    if b1.field_order != b2.field_order:
        raise ValueError(
            f"branches live in different fields (orders {b1.field_order} "
            f"and {b2.field_order})"
        )
    n = math.lcm(b1.n, b2.n)
    f1, f2 = n // b1.n, n // b2.n
    step = (k % b2.n) * (b2.field_order // b2.n)
    s1 = {m * f1: c for m, c in b1.terms}
    s2 = {m * f2: c for m, c in b2.terms}
    limit = min(b1.truncation * f1, b2.truncation * f2)
    for e in sorted(set(s1) | set(s2)):
        if e > limit:
            break
        a, b = s1.get(e), s2.get(e)
        if a is None or b is None:
            return Fraction(e, n)
        if a != (b.rotate(e // f2 * step) if step else b):
            return Fraction(e, n)
    raise TruncationExceeded(
        f"series agree at every known exponent up to x^({limit}/{n})",
        lower_bound=Fraction(limit + 1, n),
    )


def difference_orders(b1: PuiseuxBranch, b2: PuiseuxBranch) -> list:
    """The conjugate sweep of a pair: ``difference_order(b1, b2, k)`` for each
    conjugate k of b2, or the TruncationExceeded that blocked it."""
    orders: list = []
    for k in range(b2.n):
        try:
            orders.append(difference_order(b1, b2, k))
        except TruncationExceeded as exc:
            orders.append(exc)
    return orders


@dataclass(frozen=True)
class CurveGerm:
    """A plane curve germ as a non-empty list of pairwise distinct branches.

    Distinctness means no branch is a Newton-Puiseux conjugate of
    another: for every conjugation some pair of known terms must differ.
    The sweep that proves it is kept: ``_sweeps[i, j]`` holds
    ``difference_orders(branches[i], branches[j])`` for i < j, all exact,
    and the contact report reads it.  It is derived from the branches, so
    it stays out of ``__init__``, ``repr``, ``==`` and ``hash``.
    """

    branches: tuple[PuiseuxBranch, ...]
    _sweeps: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise GermValidationError("a germ needs at least one branch")
        order = self.branches[0].field_order
        for i, b in enumerate(self.branches):
            if b.field_order != order:
                raise GermValidationError(
                    f"branch {i} has field order {b.field_order}, expected {order}"
                )
        sweeps = {}
        for i in range(len(self.branches)):
            for j in range(i + 1, len(self.branches)):
                orders = difference_orders(self.branches[i], self.branches[j])
                for k, v in enumerate(orders):
                    if isinstance(v, TruncationExceeded):
                        raise GermValidationError(
                            f"branches {i} and {j} cannot be told apart "
                            f"(conjugation {k} agrees within the known terms): "
                            "duplicate branch or insufficient truncation"
                        )
                sweeps[i, j] = tuple(orders)
        object.__setattr__(self, "_sweeps", sweeps)

    @property
    def field_order(self) -> int:
        return self.branches[0].field_order


def lift_branch(b: PuiseuxBranch, field_order: int) -> PuiseuxBranch:
    """Move a branch into the larger field Q(zeta_field_order)."""
    if field_order == b.field_order:
        return b
    return PuiseuxBranch(
        b.n, tuple((m, c.lift(field_order)) for m, c in b.terms), b.truncation, field_order
    )


def germ(branches) -> CurveGerm:
    """Build a germ from branches, lifting everything into a common field."""
    branches = list(branches)
    if not branches:
        raise GermValidationError("a germ needs at least one branch")
    order = math.lcm(*(b.field_order for b in branches))
    return CurveGerm(tuple(lift_branch(b, order) for b in branches))


# ---------------------------------------------------------------------------
# Germ file format (JSON)
# ---------------------------------------------------------------------------
#
# {
#   "zeta_order": N,                  optional; defaults to lcm of the n's
#   "branches": [
#     {"n": 2, "truncation": 5,
#      "terms": [{"exp": 5, "coeff": {"rational": "1"}},
#                {"exp": 7, "coeff": {"cyclotomic": [["1/2", 1], ["-1", 3]]}}]}
#   ]
# }
#
# A "cyclotomic" coefficient lists [q, k] pairs meaning sum of q * zeta^k
# with zeta of order "zeta_order".  All coefficients are lifted into
# Q(zeta_N) with N = lcm(zeta_order, all branch multiplicities).


def _require(cond, message):
    if not cond:
        raise GermValidationError(message)


def _rational(node) -> Fraction:
    if isinstance(node, bool):
        raise GermValidationError(f"not a rational number: {node!r}")
    if isinstance(node, int):
        return Fraction(node)
    if isinstance(node, str):
        try:
            return Fraction(node)
        except (ValueError, ZeroDivisionError) as exc:
            raise GermValidationError(f"bad rational literal {node!r}: {exc}") from None
    raise GermValidationError(f"rationals must be strings like '3/4', got {node!r}")


def _coefficient(node, declared_order: int) -> CyclotomicNumber:
    _require(
        isinstance(node, dict) and len(node) == 1,
        "a coefficient is an object with exactly one of 'rational' or 'cyclotomic'",
    )
    if "rational" in node:
        return CyclotomicNumber.from_rational(declared_order, _rational(node["rational"]))
    if "cyclotomic" in node:
        entries = node["cyclotomic"]
        _require(isinstance(entries, list), "'cyclotomic' must be a list of [q, k] pairs")
        total = CyclotomicNumber.zero(declared_order)
        for entry in entries:
            _require(
                isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], int),
                f"bad cyclotomic entry {entry!r}: expected [\"p/q\", k]",
            )
            total = total + _rational(entry[0]) * zeta(declared_order, entry[1])
        return total
    raise GermValidationError(f"unknown coefficient form {sorted(node)!r}")


def germ_from_dict(data) -> CurveGerm:
    """Validate a parsed germ document and build the CurveGerm."""
    _require(isinstance(data, dict), "germ document must be a JSON object")
    raw = data.get("branches")
    _require(isinstance(raw, list) and raw, "germ needs a non-empty 'branches' array")
    mults = []
    for node in raw:
        _require(isinstance(node, dict), "each branch must be an object")
        n = node.get("n")
        _require(
            isinstance(n, int) and not isinstance(n, bool) and n >= 1,
            "branch field 'n' must be a positive integer",
        )
        mults.append(n)
    declared = data.get("zeta_order", math.lcm(*mults))
    _require(
        isinstance(declared, int) and not isinstance(declared, bool) and declared >= 1,
        "'zeta_order' must be a positive integer",
    )
    order = math.lcm(declared, *mults)

    branches = []
    for idx, node in enumerate(raw):
        truncation = node.get("truncation")
        _require(
            isinstance(truncation, int) and not isinstance(truncation, bool)
            and truncation >= 1,
            f"branch {idx}: 'truncation' must be a positive integer",
        )
        raw_terms = node.get("terms", [])
        _require(isinstance(raw_terms, list), f"branch {idx}: 'terms' must be a list")
        terms = []
        for t in raw_terms:
            _require(
                isinstance(t, dict) and "exp" in t and "coeff" in t,
                f"branch {idx}: each term needs 'exp' and 'coeff'",
            )
            exp = t["exp"]
            _require(
                isinstance(exp, int) and not isinstance(exp, bool) and exp >= 1,
                f"branch {idx}: term exponent must be a positive integer",
            )
            coeff = _coefficient(t["coeff"], declared).lift(order)
            if coeff.is_zero():
                raise GermValidationError(
                    f"branch {idx}: zero coefficient listed at exponent {exp}"
                )
            terms.append((exp, coeff))
        try:
            branches.append(PuiseuxBranch(mults[idx], tuple(terms), truncation, order))
        except GermValidationError as exc:
            raise GermValidationError(f"branch {idx}: {exc}") from None
    return CurveGerm(tuple(branches))


def parse_germ(text: str) -> CurveGerm:
    """Parse a germ from its JSON source text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GermValidationError(f"invalid JSON: {exc}") from None
    return germ_from_dict(data)


def load_germ(path) -> CurveGerm:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_germ(handle.read())


def _coefficient_to_dict(c: CyclotomicNumber) -> dict:
    if c.is_rational():
        return {"rational": str(c.coeffs[0])}
    return {
        "cyclotomic": [[str(q), k] for k, q in enumerate(c.coeffs) if q != 0]
    }


def germ_to_dict(g: CurveGerm) -> dict:
    """Serialize a germ back into the file format; round-trips exactly."""
    return {
        "zeta_order": g.field_order,
        "branches": [
            {
                "n": b.n,
                "truncation": b.truncation,
                "terms": [
                    {"exp": m, "coeff": _coefficient_to_dict(c)} for m, c in b.terms
                ],
            }
            for b in g.branches
        ],
    }
