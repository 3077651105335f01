"""Truncated Newton-Puiseux parametrizations of plane branches.

A branch is the germ at the origin of the image of t -> (t^n, y(t)) with
y(t) = sum a_m t^m, each a_m in a cyclotomic field Q(zeta_N) of its own.
Only finitely many terms are known: exponents above the stated
truncation are unspecified, and every comparison that runs out of known
terms raises :class:`TruncationExceeded` with the best available lower
bound instead of guessing.

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

from curvegerm.cyclotomic import CyclotomicNumber, _canonical, _reduced


class GermValidationError(ValueError):
    """The input does not describe a valid reduced germ."""


class ConsistencyError(ValueError):
    """A result failed the library's own consistency check: a bug to
    report, not a fault of the input."""


class TruncationExceeded(Exception):
    """A computation is inconclusive within the known terms.

    Not a bug: callers must either supply more terms or handle the
    outcome.  ``lower_bound``, when set, is an exact lower bound, in
    units of ord_x, for the quantity that was asked for.
    """

    def __init__(self, message: str, lower_bound: Fraction | None = None):
        super().__init__(message)
        self.lower_bound = lower_bound


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class PuiseuxBranch:
    """One branch: x = t^n, y = sum of coeff * t^exp, known up to the truncation.

    n:          order of the x-coordinate; the multiplicity of the branch.
    terms:      ((exp, coeff), ...) with strictly increasing positive
                exponents and nonzero cyclotomic coefficients, each in the
                field it was built in (a rational one in Q(zeta_1)).
    truncation: exponents above this bound are unknown.
    """

    n: int
    terms: tuple[tuple[int, CyclotomicNumber], ...]
    truncation: int

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((m, c) for m, c in self.terms))
        if not _is_int(self.n) or self.n < 1:
            raise GermValidationError("multiplicity n must be a positive integer")
        if not _is_int(self.truncation) or self.truncation < 1:
            raise GermValidationError("truncation must be a positive integer")
        last = 0
        for m, coeff in self.terms:
            if not _is_int(m) or m <= last:
                raise GermValidationError(
                    "term exponents must be strictly increasing positive integers"
                )
            if m > self.truncation:
                raise GermValidationError(
                    f"term exponent {m} exceeds the truncation {self.truncation}"
                )
            if not isinstance(coeff, CyclotomicNumber):
                raise GermValidationError(
                    f"coefficient at exponent {m} must be a CyclotomicNumber"
                )
            if coeff.is_zero():
                raise GermValidationError(f"zero coefficient listed at exponent {m}")
            last = m
        if self.terms and self.terms[0][0] < self.n:
            raise GermValidationError(
                f"leading exponent {self.terms[0][0]} is below n={self.n}: n would not "
                "be the multiplicity (branch tangent to the y-axis); swap coordinates"
            )

    def __eq__(self, other):
        if not isinstance(other, PuiseuxBranch):
            return NotImplemented
        shape = (self.n, self.truncation, self.exponents)
        return shape == (other.n, other.truncation, other.exponents) and all(
            x == y for x, y in (_lifted(a, c) for (_, a), (_, c) in zip(self.terms, other.terms))
        )

    def __hash__(self):
        return hash((self.n, self.truncation, self.exponents))

    @property
    def exponents(self) -> tuple[int, ...]:
        # from a list: tuple() of a generator allocates spare slots and
        # shrinks, and the shrunk tuples pile up in CPython's per-size
        # tuple free lists (about 1.5 MB of resident memory in a long run)
        return tuple([m for m, _ in self.terms])

    def __repr__(self):
        body = " + ".join(f"({c})*t^{m}" for m, c in self.terms) or "0"
        return f"PuiseuxBranch(x=t^{self.n}, y={body}, truncation={self.truncation})"


def branch(n, terms=(), truncation=None, field_order=None) -> PuiseuxBranch:
    """Convenience constructor accepting int/Fraction or cyclotomic coefficients.

    A cyclotomic coefficient stays in its own field and a rational one
    goes into Q(zeta_1); with ``field_order`` N, every coefficient is
    stored in Q(zeta_N) instead.  The truncation defaults to the largest
    exponent and must be given explicitly for a zero series.
    """
    terms = [(m, c) for m, c in terms]
    if truncation is None:
        if not terms:
            raise ValueError("truncation is required for a branch with no known terms")
        truncation = max(m for m, _ in terms)
    stored = []
    for m, c in terms:
        if not isinstance(c, CyclotomicNumber):
            c = CyclotomicNumber.from_rational(field_order or 1, c)
        stored.append((m, c if field_order is None else c.lift(field_order)))
    return PuiseuxBranch(n, tuple(stored), truncation)


def _lifted(a: CyclotomicNumber, c: CyclotomicNumber, n: int = 1):
    """a and c lifted into their smallest common field that holds zeta_n."""
    order = math.lcm(a.order, c.order, n)
    return a.lift(order), c.lift(order)


def _turned(c: CyclotomicNumber, r: int, n: int) -> CyclotomicNumber:
    """zeta_n^r * c: c itself when r is 0, else in Q(zeta_L), L = lcm(c.order, n).

    A branch's coefficient at its exponent m in its k-th conjugate is the
    one with r = k*m mod n.
    """
    if not r:
        return c
    order = math.lcm(c.order, n)
    return c.lift(order).rotate(r * (order // n))


def conjugate(b: PuiseuxBranch, k: int) -> PuiseuxBranch:
    """The parametrization of the same branch with t replaced by zeta_n^k * t."""
    k %= b.n
    if k == 0:
        return b
    terms = tuple((m, _turned(c, k * m % b.n, b.n)) for m, c in b.terms)
    return PuiseuxBranch(b.n, terms, b.truncation)


def _contact_tree(branches, conjugates=None):
    """The branches' contact tree (Kuo and Lu), from one walk over their terms.

    Every branch is put on x = s^den, den = lcm of the multiplicities;
    turning s by zeta_den^v turns branch i into its conjugate v mod n_i.
    A class of branches that agree so far is a representative at
    conjugate 0 and members, each with its conjugates that still agree
    with it.  At each s-exponent of the class, a member tries the
    residues r = k*m mod n of those conjugates k in order of first
    appearance, its coefficient rotated by zeta_n^r (not for r = 0) and
    lifted with the representative's (:func:`_lifted`); as it is not 0,
    the first residue that agrees ends the trials.  A member with no
    residue that agrees, or with a term where the representative has
    none or the other way round, parts there, at e: every pair across
    the split has contact e.  The members left go on past e; those that
    parted go on from e under the first of them, whose first agreeing
    conjugate u re-bases the others' conjugates, k -> k - u mod n.  A
    representative has the smallest index in its class, so one side of
    every comparison stays unrotated and no field grows beyond a pair's.

    Returns den, the tree ``(levels, parents, leaves)`` and None.  Node
    k has level ``levels[k]``, an int numerator over den (None for a
    leaf), and parent ``parents[k]`` (-1 for the root), and comes after
    its parent; ``leaves[i]`` is branch i's leaf.  A class that splits at
    its parent's level adds its children to that node, so a pair's
    contact is the level where its leaves meet (:func:`_meetings`).  A
    member that still agrees past the last s-exponent both it and its
    representative know stops the walk, which then returns den, None and
    (that limit, the member's conjugates left in increasing order, the
    representative, the member).
    ``conjugates`` (only for a pair; default every one) holds the second
    branch to the listed conjugates, each in range(n).
    """
    den = math.lcm(*[b.n for b in branches])
    # s-exponents, each list ended by a sentinel past every term
    exps = [[m * (den // b.n) for m, _ in b.terms] + [math.inf] for b in branches]
    tops = [b.truncation * (den // b.n) for b in branches]
    levels: list[int | None] = []
    parents: list[int] = []
    leaves = [0] * len(branches)
    # a class is its representative, its members (j, conjugates of j left),
    # the number of terms walked (the same for each, as all agree so far)
    # and its node (its parent's at first)
    todo = [(0, [(j, conjugates or range(b.n)) for j, b in enumerate(branches) if j], 0, -1)]
    while todo:
        rep, members, at, node = todo.pop()
        own, terms, top = exps[rep], branches[rep].terms, tops[rep]
        while members:
            mine = own[at]
            e = min([mine] + [exps[j][at] for j, _ in members])
            stay, gone = [], []
            for j, ks in members:
                if top < e or tops[j] < e:
                    return den, None, (min(top, tops[j]), list(ks), rep, j)
                theirs = exps[j][at]
                if theirs != e and mine != e:
                    stay.append((j, ks))
                elif theirs != mine:
                    gone.append((j, ks))
                else:
                    b = branches[j]
                    m, c = b.terms[at]
                    for res in dict.fromkeys([k * m % b.n for k in ks]):
                        x, y = _lifted(terms[at][1], _turned(c, res, b.n))
                        if x == y:
                            stay.append((j, [k for k in ks if k * m % b.n == res]))
                            break
                    else:
                        gone.append((j, ks))
            if gone:
                if node < 0 or levels[node] != e:
                    levels.append(e)
                    parents.append(node)
                    node = len(levels) - 1
                (p, base), *rest = gone
                u = base[0]
                if u:
                    rest = [(j, sorted([(k - u) % branches[j].n for k in ks])) for j, ks in rest]
                todo.append((p, rest, at, node))
            members = stay
            if mine == e:
                at += 1
        # a class with no members left is a leaf
        leaves[rep] = len(levels)
        levels.append(None)
        parents.append(node)
    return den, (tuple(levels), tuple(parents), tuple(leaves)), None


def _meetings(tree):
    """Every branch pair of a contact tree ``(levels, parents, leaves)``.

    Visits children before parents, and for each inner node's second and
    later children yields (the node's level, the branches gathered under
    the node so far, the branches under that child): each pair once, at
    its contact.  Each list starts with its smallest branch; read it
    before the next step, when the shorter list joins the longer.
    """
    levels, parents, leaves = tree
    under: list = [None] * len(levels)
    for i, leaf in enumerate(leaves):
        under[leaf] = [i]
    for node in range(len(levels) - 1, 0, -1):
        parent, child = parents[node], under[node]
        gathered = under[parent]
        if gathered is not None:
            yield levels[parent], gathered, child
            short, child = (gathered, child) if len(gathered) < len(child) else (child, gathered)
            if short[0] < child[0]:
                short[0], child[0] = child[0], short[0]
            child += short
        under[parent] = child


def difference_order(b1: PuiseuxBranch, b2: PuiseuxBranch, k: int = 0) -> Fraction:
    """Order in x at which b1 and the k-th conjugate of b2 first differ.

    This is the pair's walk (:func:`_contact_tree`) held to conjugate k,
    on the common parameter s with x = s^lcm(n1, n2); it stops at the
    first s-exponent where the two differ.  Raises TruncationExceeded,
    carrying the lower bound (limit+1)/lcm, when every term up to the
    shorter truncation agrees.
    """
    n, tree, blocked = _contact_tree((b1, b2), [k % b2.n])
    if blocked:
        limit = blocked[0]
        raise TruncationExceeded(
            f"series agree at every known exponent up to x^({limit}/{n})",
            lower_bound=Fraction(limit + 1, n),
        )
    return Fraction(tree[0][0], n)


_ABSENT = CyclotomicNumber.zero(1)


def _differences(b1: PuiseuxBranch, b2: PuiseuxBranch, ks):
    """b1 minus each conjugate k in ``ks`` of b2, from one walk over the
    pair's terms.

    Both series are put on the common parameter s, x = s^n with n =
    lcm(n1, n2), rescaling exponents only, and their s-exponents are
    walked once.  At each one the two coefficients are lifted once into
    the smallest field that holds both and zeta_n2 (:func:`_lifted`; a
    missing one counts as 0 in Q(zeta_1)), and one difference is taken per
    residue k*m mod n2 among ``ks``; conjugates with the same residue
    share it.  Returns one :func:`difference_series` value (n, terms) per
    k in ``ks``.
    """
    n = math.lcm(b1.n, b2.n)
    s1 = {m * (n // b1.n): a for m, a in b1.terms}
    s2 = {term[0] * (n // b2.n): term for term in b2.terms}
    series = [[] for _ in ks]
    for e in sorted(s1.keys() | s2.keys()):
        m, c = s2.get(e, (0, _ABSENT))
        a, c = _lifted(s1.get(e, _ABSENT), c, b2.n)
        diffs: dict[int, CyclotomicNumber] = {}
        for k, terms in zip(ks, series):
            r = k * m % b2.n
            d = diffs.get(r)
            if d is None:
                d = diffs[r] = a - _turned(c, r, b2.n)
            if not d.is_zero():
                terms.append((e, d))
    return [(n, tuple(terms)) for terms in series]


def difference_series(b1: PuiseuxBranch, b2: PuiseuxBranch, k: int = 0):
    """b1 minus the k-th conjugate of b2 as an exact series in s, x = s^n.

    Returns n = lcm(n1, n2) and the ((e, coeff), ...) terms of the
    difference in increasing s-exponent, each coefficient in the smallest
    field that holds the two it comes from and zeta_n2 (a missing one
    counts as 0 in Q(zeta_1)).  Every known term of either branch takes
    part, whatever the other's truncation; terms whose coefficients
    cancel exactly are dropped, so an empty series means the two agree in
    every known term.  This is one conjugate of :func:`_differences`.
    """
    return _differences(b1, b2, (k,))[0]


@dataclass(frozen=True)
class CurveGerm:
    """A plane curve germ as a non-empty list of pairwise distinct branches.

    Distinctness means no branch is a Newton-Puiseux conjugate of
    another: for every conjugation some pair of known terms must differ.
    The walk that proves it (:func:`_contact_tree`) finds the germ's
    contact tree, its one record of their contacts, which the contact
    report and the classifier read: ``_tree`` is ``(den, (levels,
    parents, leaves))``, den = lcm of the multiplicities.  When the walk
    cannot part some pair, it names the first it meets, with its smallest
    agreeing conjugation.  ``_holder`` is the classifier's summary, made
    by :mod:`curvegerm.holder` on first use.  Both derive from the
    branches, so they stay out of ``__init__``, ``repr``, ``==`` and ``hash``.
    """

    branches: tuple[PuiseuxBranch, ...]
    _tree: tuple = field(init=False, repr=False, compare=False)
    _holder: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        branches = self.branches
        if not branches:
            raise GermValidationError("a germ needs at least one branch")
        den, tree, blocked = _contact_tree(branches)
        if blocked:
            _, ks, i, j = blocked
            raise GermValidationError(
                f"branches {i} and {j} cannot be told apart (conjugation {ks[0]} "
                "agrees within the known terms): duplicate branch or insufficient truncation"
            )
        object.__setattr__(self, "_tree", (den, tree))


def germ(branches) -> CurveGerm:
    """Build a germ from branches, each coefficient kept in the field it was built in."""
    return CurveGerm(tuple(branches))


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
# with zeta of order "zeta_order", and is read into Q(zeta_order); one
# whose value is rational, like a "rational" one, into Q(zeta_1).
# Writing a germ sets "zeta_order" to the lcm of the orders of the
# non-rational coefficients (1 when there are none).


def _require(cond, message):
    if not cond:
        raise GermValidationError(message)


def _rational(node) -> int | Fraction:
    if isinstance(node, bool):
        raise GermValidationError(f"not a rational number: {node!r}")
    if isinstance(node, int):
        return node
    if isinstance(node, str):
        try:
            return Fraction(node)
        except (ValueError, ZeroDivisionError) as exc:
            raise GermValidationError(f"bad rational literal {node!r}: {exc}") from None
    raise GermValidationError(f"rationals must be strings like '3/4', got {node!r}")


def _coefficient(node, declared_order: int) -> CyclotomicNumber:
    """The coefficient in Q(zeta_declared_order), or in Q(zeta_1) if rational."""
    _require(
        isinstance(node, dict) and len(node) == 1,
        "a coefficient is an object with exactly one of 'rational' or 'cyclotomic'",
    )
    if "rational" in node:
        return CyclotomicNumber.from_rational(1, _rational(node["rational"]))
    if "cyclotomic" in node:
        entries = node["cyclotomic"]
        _require(isinstance(entries, list), "'cyclotomic' must be a list of [q, k] pairs")
        for entry in entries:
            _require(
                isinstance(entry, list) and len(entry) == 2 and _is_int(entry[1]),
                f"bad cyclotomic entry {entry!r}: expected [\"p/q\", k]",
            )
        c = _reduced(declared_order, [(k, _rational(q)) for q, k in entries])
        return _canonical(1, c.den, c.nums[:1]) if c.is_rational() else c
    raise GermValidationError(f"unknown coefficient form {sorted(node)!r}")


def germ_from_dict(data) -> CurveGerm:
    """Check a parsed germ document's JSON shapes and build the CurveGerm;
    :class:`PuiseuxBranch` checks each branch's numbers, under ``branch {idx}: ``."""
    _require(isinstance(data, dict), "germ document must be a JSON object")
    raw = data.get("branches")
    _require(isinstance(raw, list) and raw, "germ needs a non-empty 'branches' array")
    mults = []
    for node in raw:
        _require(isinstance(node, dict), "each branch must be an object")
        n = node.get("n")
        _require(
            _is_int(n) and n >= 1,
            "branch field 'n' must be a positive integer",
        )
        mults.append(n)
    declared = data.get("zeta_order", math.lcm(*mults))
    _require(
        _is_int(declared) and declared >= 1,
        "'zeta_order' must be a positive integer",
    )

    branches = []
    for idx, node in enumerate(raw):
        raw_terms = node.get("terms", [])
        _require(isinstance(raw_terms, list), f"branch {idx}: 'terms' must be a list")
        terms = []
        for t in raw_terms:
            _require(
                isinstance(t, dict) and "exp" in t and "coeff" in t,
                f"branch {idx}: each term needs 'exp' and 'coeff'",
            )
            terms.append((t["exp"], _coefficient(t["coeff"], declared)))
        try:
            branches.append(PuiseuxBranch(mults[idx], tuple(terms), node.get("truncation")))
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


def _coefficient_to_dict(c: CyclotomicNumber, order: int) -> dict:
    if c.is_rational():
        return {"rational": str(c.coeffs[0])}
    return {
        "cyclotomic": [[str(q), k] for k, q in enumerate(c.lift(order).coeffs) if q != 0]
    }


def germ_to_dict(g: CurveGerm) -> dict:
    """Serialize a germ back into the file format; round-trips exactly."""
    order = math.lcm(*(c.order for b in g.branches for _, c in b.terms if not c.is_rational()))
    return {
        "zeta_order": order,
        "branches": [
            {
                "n": b.n,
                "truncation": b.truncation,
                "terms": [
                    {"exp": m, "coeff": _coefficient_to_dict(c, order)} for m, c in b.terms
                ],
            }
            for b in g.branches
        ],
    }
