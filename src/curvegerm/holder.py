"""Holder-exponent obstructions and the germ classifier.

Two plane branches whose characteristic exponent sequences differ admit
no bi-alpha-Holder homeomorphism once alpha**4 exceeds a computable
rational obstruction; two germs of two branches each admit none once
alpha**2 exceeds the ratio of their pairwise contacts.  The classifier
collects every such obstruction into a finite set E (which always
contains the baseline 1/2), takes k0 = max E < 1, and certifies that no
bi-alpha-Holder homeomorphism exists for any alpha in (k0**(1/4), 1).
When instead some bijection of branches preserves all characteristic
data and all pairwise contacts, the germs are topologically equivalent,
hence bi-Lipschitz equivalent, and the verdict says so.

That bijection is found on the contact tree (the Kuo-Lu / Eggers tree)
rather than by search.  Contact is an ultrametric, so a germ's branches
form a rooted tree: its leaves are the branches, labelled by their
characteristic exponents, and an internal node labelled c splits its
branches into the classes of "contact > c".  A bijection keeps every
beta and every contact exactly when it is an isomorphism of these
labelled trees.  By Zariski and Burau, characteristic data plus
pairwise contacts is the complete topological invariant of a germ, so
the tree is a property of each germ alone; the walk that validates the
germ builds it (``CurveGerm._tree``).  Each germ keeps, built once on
first use, a summary that no partner changes (:class:`_Summary`): its
branches' marks and its contact tree with a canonical key on every
node, one flat tuple in the manner of Aho, Hopcroft and Ullman (see
:func:`holder_key`) that compares without recursion at any depth.  Two
germs are equivalent exactly when their keys are equal; the bijection
returned is then the one a search over all r! bijections finds first in
lexicographic order, read off the two trees by climbing from leaf pairs
through nodes of equal keys.

An obstruction's value depends only on its source values (the two betas,
or the two contacts), so the classifier lists one obstruction per
distinct pair of source values, counting the branch pairs that share it;
a germ has at most r distinct betas and, contact being an ultrametric,
at most r - 1 distinct contacts, so the list has at most
1 + r**2 + (r - 1)**2 entries.

All thresholds are exact rationals; the fourth root is applied only at
presentation time.  A branch enters as its marks (:func:`_marks`), kept
once per germ, and a contact as an int numerator over its germ's lcm of
multiplicities.  The scan compares values as unreduced int pairs from
``_pair_ratio``, ``_branch_ratio`` and ``_contact_ratio``, and k0 by
cross-multiplication.  A ``Fraction`` is made only for a value handed
out: one per distinct value among a verdict's obstructions, shared by
every obstruction of that value and by k0, and the result of a public
obstruction function.  The scan reduces each new int pair with
``math.gcd`` and builds a value from the coprime ints
(``cyclotomic._fraction``), not through ``Fraction``'s constructor, and
only when no equal value was met before.  An obstruction is a named tuple.
:func:`classify` checks each fact once, where it makes it, so it builds
its obstructions and its verdict without their constructors' checks:
each source's count where the germ's summary makes the source, each
value in (0, 1], as reduced ints, where the scan first meets it, and
k0 < 1, k0 being the scan's running maximum, once at the end.
"""

from __future__ import annotations

import itertools  # noqa: F401 -- bench/tracer.py patches it until ROADMAP item 4b
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from curvegerm.cyclotomic import _fraction
from curvegerm.invariants import CharacteristicData, characteristic_data
from curvegerm.puiseux import ConsistencyError, CurveGerm, _meetings

STATUS_EQUIVALENT = "equivalent_invariants"
STATUS_DISTINCT = "certified_distinct"

KIND_CHAR_EXPONENTS = "char_exponents"
KIND_CONTACT = "contact"
KIND_BASELINE = "baseline"

#: Constant member of every obstruction set; keeps it non-empty.
BASELINE = Fraction(1, 2)

#: Smooth branches enter the pair obstruction with this formal pair,
#: their only Puiseux exponent being 1.
FORMAL_SMOOTH_PAIR = ((1, 1),)


def _marks(pairs) -> tuple[tuple[int, int], ...]:
    """A branch's marks ((m_1, N_1), ..., (m_g, N_g)), N_j = n_1...n_j,
    from its characteristic pairs; a smooth branch gets the marks of
    ``FORMAL_SMOOTH_PAIR``."""
    marks, product = [], 1
    for m, n in pairs or FORMAL_SMOOTH_PAIR:
        product *= n
        marks.append((m, product))
    return tuple(marks)


def _pair_ratio(mark1, mark2) -> tuple[int, int]:
    """``pair_obstruction`` of marks (m_j, N_j) and (l_i, Q_i) as an unreduced
    int pair: with a = m_j * Q_i and b = l_i * N_j, both positive,
    min((a+b)/(2b), (a+b)/(2a)) = (a+b)/(2 max(a, b))."""
    a, b = mark1[0] * mark2[1], mark2[0] * mark1[1]
    return a + b, 2 * max(a, b)


def pair_obstruction(pairs1, j: int, pairs2, i: int) -> Fraction:
    """Obstruction from the j-th characteristic pair of one branch against
    the i-th of another.

    With A = m_j * q_1...q_i and B = l_i * n_1...n_j (m, n from the first
    pair list, l, q from the second), returns min((A+B)/(2B), (A+B)/(2A)).
    The value lies in (0, 1] and equals 1 exactly when A = B, i.e. when
    the truncated exponent ratios m_j/(n_1...n_j) and l_i/(q_1...q_i)
    coincide.
    """
    if not 1 <= j <= len(pairs1):
        raise IndexError(f"pair index {j} out of range 1..{len(pairs1)}")
    if not 1 <= i <= len(pairs2):
        raise IndexError(f"pair index {i} out of range 1..{len(pairs2)}")
    return Fraction(*_pair_ratio(_marks(pairs1)[j - 1], _marks(pairs2)[i - 1]))


def _branch_ratio(marks1, marks2) -> tuple[int, int] | None:
    """``branch_obstruction`` of two branches given by their marks, as an
    unreduced int pair; None when the marks, and so the betas, agree.

    Two branches of genus at most 1 have one mark each and so one value,
    which is returned without setting up the scan.
    """
    if marks1 == marks2:
        return None
    g1, g2 = len(marks1), len(marks2)
    if g1 == 1 == g2:
        (m1, n1), (m2, n2) = marks1[0], marks2[0]
        a, b = m1 * n2, m2 * n1
        if a > b:
            return a + b, 2 * a
        if a < b:
            return a + b, 2 * b
    if g1 == g2:
        scan = zip(marks1, marks2)
    elif g1 > g2:
        scan = zip(marks1[g2 - 1:], marks2[-1:] * (g1 - g2 + 1))
    else:
        scan = zip(marks1[-1:] * (g2 - g1 + 1), marks2[g1 - 1:])
    top, bottom = 0, 1
    # _pair_ratio inline: a + b == 2 max(a, b) exactly when a == b
    for (m1, n1), (m2, n2) in scan:
        a, b = m1 * n2, m2 * n1
        if a != b:
            num, den = a + b, 2 * (a if a > b else b)
            if num * bottom > top * den:
                top, bottom = num, den
    return top, bottom


def branch_obstruction(c1: CharacteristicData, c2: CharacteristicData) -> Fraction:
    """Sharpest pair obstruction separating two branches; 1 when none exists.

    Returns 1 iff the characteristic exponent sequences are identical.
    For equal genus the relevant diagonal obstructions are scanned; for
    different genus the scan runs over the index range that pins the
    larger genus against the last pair of the smaller one.  Values equal
    to 1 do not obstruct and are skipped (at most one index can produce
    them).
    """
    ratio = _branch_ratio(_marks(c1.pairs), _marks(c2.pairs))
    return Fraction(1) if ratio is None else Fraction(*ratio)


def _contact_ratio(cont1: int, cont2: int) -> tuple[int, int] | None:
    """``contact_obstruction`` of two contacts given as int numerators over
    one denominator, as an int pair; None when they agree."""
    if cont1 == cont2:
        return None
    return (cont1, cont2) if cont1 < cont2 else (cont2, cont1)


def contact_obstruction(cont1: Fraction, cont2: Fraction) -> Fraction:
    """Obstruction from a pair of contact exponents; 1 when they agree."""
    if cont1 < 1 or cont2 < 1:
        raise ValueError("contact exponents are always at least 1")
    a, b = cont1.numerator * cont2.denominator, cont2.numerator * cont1.denominator
    ratio = _contact_ratio(a, b)
    return Fraction(1) if ratio is None else Fraction(*ratio)


class Obstruction(
    namedtuple(
        "Obstruction",
        ("kind", "value", "witness", "first", "second", "count"),
        defaults=((), (), 1),
    )
):
    """One member of the obstruction set E, with its witness.

    ``witness`` names in prose the lexicographically first pair that
    realises the obstruction; ``first`` and ``second`` give it as branch
    indices of the first and of the second germ (``(u,)`` and ``(v,)``
    for characteristic exponents, ``(i, j)`` and ``(u, v)`` for
    contacts), and ``count`` is how many such pairs share its source
    values.  An obstruction is a named tuple: it unpacks, indexes and
    compares like the plain tuple of its fields.  The constructor checks
    an exact value in (0, 1] and a positive count, and so do ``_make``,
    ``_replace`` and unpickling, which go through it; only
    :func:`classify`, which checks its values and counts where it makes
    them, builds obstructions with ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, kind, value, witness, first=(), second=(), count=1):
        if not isinstance(value, Fraction):
            raise ConsistencyError(f"obstruction value {value!r} is not an exact Fraction")
        if not 0 < value.numerator <= value.denominator:
            raise ConsistencyError(f"obstruction value {value} outside (0, 1]")
        if count < 1:
            raise ConsistencyError(f"obstruction count {count} is not positive")
        return tuple.__new__(cls, (kind, value, witness, first, second, count))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def to_dict(self) -> dict:
        payload = {"kind": self.kind, "value": str(self.value), "witness": self.witness}
        if self.kind != KIND_BASELINE:
            payload["first"] = list(self.first)
            payload["second"] = list(self.second)
            payload["count"] = self.count
        return payload


@dataclass(frozen=True)
class HolderVerdict:
    """Classifier output.

    Either the invariants match under some branch bijection
    (status equivalent_invariants, with the bijection in ``matching``),
    or the germs are certifiably distinct with threshold k0 = max of the
    obstruction values and critical exponent alpha0 = k0**(1/4).

    The constructor, and so ``dataclasses.replace``, checks every field:
    an equivalent verdict's bijection, and a distinct verdict's exact k0,
    the largest of its values and below 1.  :func:`classify` checks each
    of these where it makes it (see the module docstring), so it builds
    its verdicts without the constructor.
    """

    status: str
    matching: tuple[int, ...] | None = None
    k0: Fraction | None = None
    obstructions: tuple[Obstruction, ...] = ()

    def __post_init__(self):
        if self.status == STATUS_EQUIVALENT:
            if self.matching is None:
                raise ConsistencyError("equivalent verdict needs the branch bijection")
            if sorted(self.matching) != list(range(len(self.matching))):
                raise ConsistencyError(
                    f"matching {self.matching} is not a bijection of the branches"
                )
            if self.k0 is not None or self.obstructions:
                raise ConsistencyError("equivalent verdict carries no k0 and no obstructions")
        elif self.status == STATUS_DISTINCT:
            if self.matching is not None:
                raise ConsistencyError("distinct verdict carries no branch bijection")
            if not isinstance(self.k0, Fraction):
                raise ConsistencyError(f"k0 {self.k0!r} is not an exact Fraction")
            # k0 = p/q is one of the values, none exceeds it, and p < q, in
            # one pass over the distinct value objects (classify hands every
            # obstruction of one value, and k0, the same Fraction); Fractions
            # are reduced, so equal values have equal ints
            p, q = self.k0.numerator, self.k0.denominator
            ok, among = p < q, False
            values = list(map(itemgetter(1), self.obstructions))
            for value in dict(zip(map(id, values), values)).values():
                a, b = value.numerator, value.denominator
                ok = ok and a * q <= p * b
                among = among or (a == p and b == q)
            if not (ok and among):
                raise ConsistencyError("distinct verdict needs k0 = max obstruction < 1")
        else:
            raise ConsistencyError(f"unknown status {self.status!r}")

    @property
    def alpha0(self) -> float | None:
        """Decimal value of the critical exponent k0**(1/4)."""
        return None if self.k0 is None else float(self.k0) ** 0.25

    @property
    def alpha0_exact(self) -> str | None:
        return None if self.k0 is None else f"({self.k0})^(1/4)"

    def to_dict(self) -> dict:
        if self.status == STATUS_EQUIVALENT:
            return {
                "status": self.status,
                "sigma": list(self.matching),
                "statement": (
                    "characteristic exponents and pairwise contacts match under "
                    "sigma; the germs are topologically, hence bi-Lipschitz, "
                    "equivalent"
                ),
            }
        return {
            "status": self.status,
            "k0": str(self.k0),
            "alpha0": self.alpha0_exact,
            "alpha0_decimal": self.alpha0,
            "obstructions": [o.to_dict() for o in self.obstructions],
            "statement": (
                "no bi-alpha-Holder homeomorphism exists for any alpha in "
                f"({self.alpha0:.6f}, 1)"
            ),
        }


def _keyed_tree(tree, den: int, betas):
    """The germ's contact tree with a flat key per node, built bottom-up.

    ``tree`` is the germ's ``(levels, parents, leaves)``, its levels int
    numerators over ``den``; every node comes after its parent.  Returns
    ``(keys, parents, leaves)``.  A leaf's key is ``(beta,)``; an inner
    node's key is its children's keys, sorted and concatenated, with its
    contact level as the int pair (numerator, denominator) in lowest
    terms between each two neighbours, so the keys cost the sum of the
    subtree sizes.  A child's level is above its parent's, so splitting
    at the smallest level gives the children back: equal keys mean
    isomorphic subtrees, and ``keys[0]`` is the germ's :func:`holder_key`.
    """
    levels, parents, leaves = tree
    keys = list(levels)
    for i, node in enumerate(leaves):
        keys[node] = (betas[i],)
    below = [[] for _ in keys]
    for node in range(len(keys) - 1, -1, -1):
        level = levels[node]
        if level is not None:
            children = sorted(below[node])
            g = math.gcd(level, den)
            flat = list(children[0])
            for child in children[1:]:
                flat += ((level // g, den // g), *child)
            keys[node] = tuple(flat)
        if parents[node] >= 0:
            below[parents[node]].append(keys[node])
    return tuple(keys), parents, leaves


def _first_matching(tree1, tree2) -> tuple[int, ...]:
    """Lexicographically first isomorphism of two contact trees with equal
    root keys, read off leaf by leaf.

    Each tree is ``(keys, parents, leaves)`` from :func:`_keyed_tree`.
    Branch i goes to the smallest free j whose leaf climbs in step with
    i's leaf through free nodes of equal keys until both reach a pair
    already matched to each other or both pass the root; the pairs
    climbed are then matched.  The matched pairs are closed under taking
    parents, so nothing above the first matched pair needs a look, and
    a partial matching of this kind always extends to a full one, since
    matched nodes have equal keys and so equal multisets of child keys.
    """
    (keys1, parents1, leaves1), (keys2, parents2, leaves2) = tree1, tree2
    # slot -1, above both roots, is matched to itself: the climb stops there
    match1: list = [None] * len(keys1) + [-1]
    match2: list = [None] * len(keys2) + [-1]
    sigma: list[int] = []
    free = list(range(len(leaves2)))
    for leaf in leaves1:
        for j in free:
            a, b = leaf, leaves2[j]
            while match1[a] is None and match2[b] is None and keys1[a] == keys2[b]:
                a, b = parents1[a], parents2[b]
            if match1[a] == b:
                break
        else:
            raise RuntimeError("contact trees with equal keys failed to match: internal bug")
        a, b = leaf, leaves2[j]
        while match1[a] is None:
            match1[a], match2[b] = b, a
            a, b = parents1[a], parents2[b]
        free.remove(j)
        sigma.append(j)
    return tuple(sigma)


def _groups(items):
    """Group ``(where, key, count)`` items, in order of ``where``, by key.

    Returns ``{key: (first where, total count)}`` in order of first
    appearance, so iterating two such dicts nested visits the key pairs
    in the order of their first realising pair of positions.
    """
    groups: dict = {}
    for where, key, count in items:
        first, total = groups.get(key, (where, 0))
        groups[key] = (first, total + count)
    return groups


def _sources(groups: dict, witness: str) -> tuple:
    """One obstruction source ``(value, branches, count, witness fragment)``
    per group of :func:`_groups`, in the groups' order; the fragment is
    ``witness`` formatted with the group's first branches.  Each count is
    checked here, where the source is made."""
    sources = []
    for value, (where, count) in groups.items():
        if count < 1:
            raise ConsistencyError(f"obstruction count {count} is not positive")
        sources.append((value, where, count, witness.format(*where)))
    return tuple(sources)


class _Summary:
    """What the classifier reads of one germ, whatever it is compared with.

    ``marks`` (:func:`_marks`, equal exactly when betas are) are per
    branch, ``den`` and ``contacts`` are the germ's ``_tree``, ``tree``
    is that tree keyed by :func:`_keyed_tree` and ``key`` its root's key.
    The rest is read only for distinct germs, so it is built on first
    use: ``mark_groups`` and ``contact_groups``, the :func:`_groups` of
    the marks by branch and of the contacts by branch pair, the latter
    from the tree's meetings without a pass over the pairs; and, from
    them, ``as_first`` and ``as_second``, the germ's obstruction sources
    (:func:`_sources`) as classify's first and as its second germ: a
    tuple of mark sources and a tuple of contact sources, the contacts
    as int numerators over ``den``, each with its count checked once and
    its witness fragment made once, whatever the partner.  A germ keeps
    its summary as long as it lives, so it is kept in tuples, most of
    them of ints, which Python's cyclic garbage collector stops tracking.
    It is a plain class because making a dataclass costs about 0.6 ms at
    every import.
    """

    def __init__(self, marks, den, contacts, tree):
        self.marks, self.den, self.contacts = marks, den, contacts
        self.tree, self.key = tree, tree[0][0]

    @cached_property
    def mark_groups(self) -> dict:
        return _groups(((u,), marks, 1) for u, marks in enumerate(self.marks))

    @cached_property
    def contact_groups(self) -> dict:
        # len * len pairs per meeting, the first made of each list's first (smallest) branch
        pairs = []
        for c, a, b in _meetings(self.contacts):
            pairs.append(((min(a[0], b[0]), max(a[0], b[0])), c, len(a) * len(b)))
        return _groups(sorted(pairs))

    @cached_property
    def as_first(self) -> tuple:
        # the first germ's fragment ends in the " vs " that joins the two
        return (
            _sources(self.mark_groups, "branch {} of the first germ vs "),
            _sources(self.contact_groups, "contact of branches ({},{}) in the first germ vs "),
        )

    @cached_property
    def as_second(self) -> tuple:
        return (
            _sources(self.mark_groups, "branch {} of the second"),
            _sources(self.contact_groups, "({},{}) in the second"),
        )


def _summary(g: CurveGerm) -> _Summary:
    """The germ's summary, built on first use and kept in ``g._holder``."""
    summary = g._holder
    if summary is None:
        data = [characteristic_data(b) for b in g.branches]
        den, contacts = g._tree
        tree = _keyed_tree(contacts, den, [d.beta for d in data])
        summary = _Summary(tuple([_marks(d.pairs) for d in data]), den, contacts, tree)
        object.__setattr__(g, "_holder", summary)
    return summary


def _verdict(status, matching, k0, obstructions) -> HolderVerdict:
    """A verdict whose fields :func:`classify` checked as it made them,
    built without the constructor's checks."""
    verdict = object.__new__(HolderVerdict)
    verdict.__dict__.update(status=status, matching=matching, k0=k0, obstructions=obstructions)
    return verdict


def holder_key(g: CurveGerm):
    """The germ's Holder class as a canonical flat tuple, built once.

    The key is the germ's contact tree (:func:`_keyed_tree`): a leaf is
    ``(beta,)``, and an inner node is its children's keys, sorted and
    concatenated, with its contact level as the int pair (numerator,
    denominator) in lowest terms between each two neighbours.  Betas sit
    at even positions and levels at odd ones, so keys compare and hash
    element by element in C, without recursion, at any depth.
    Two germs have equal keys exactly when some bijection of branches
    keeps every characteristic exponent and every pairwise contact, that
    is when :func:`classify` finds them equivalent; by the paper's
    theorem that is also when they are bi-alpha-Holder equivalent for
    every alpha < 1.  Keys are hashable, so germs group by class in one
    dict.

    >>> from curvegerm import branch, germ
    >>> holder_key(germ([branch(2, [(3, 1)])]))
    ((2, 3),)
    >>> holder_key(germ([branch(2, [(5, 1)]), branch(2, [(3, 1)])]))
    ((2, 3), (3, 2), (2, 5))
    """
    return _summary(g).key


def classify(germ1: CurveGerm, germ2: CurveGerm) -> HolderVerdict:
    """Decide whether the two germs are Holder-distinguishable.

    A homeomorphism of germs maps branches to branches, so differing
    branch counts are certified distinct with the baseline threshold.
    Otherwise the germs are equivalent when some bijection of branches
    preserves the characteristic data branchwise and every pairwise
    contact, which by Zariski and Burau is topological equivalence.
    Such a bijection exists iff the two germs' keys (:func:`holder_key`)
    are equal; the one returned is the lexicographically first.
    Failing that, the obstruction set is assembled from the baseline,
    one branch obstruction below 1 per distinct pair (beta in the first
    germ, beta in the second), and one contact obstruction below 1 per
    distinct pair (contact in the first germ, contact in the second).
    Each names the lexicographically first branches, or branch pairs,
    that realise it and counts all that do; each germ's summary groups
    its branches by marks and its branch pairs by contact, and makes its
    obstruction sources from the groups, once for every partner, and one
    loop scans both kinds.  The list is in the order of those first
    realisations.
    """
    r1, r2 = len(germ1.branches), len(germ2.branches)
    if r1 != r2:
        witness = f"branch counts differ ({r1} vs {r2}); no homeomorphism matches them"
        baseline = Obstruction(KIND_BASELINE, BASELINE, witness)
        return _verdict(STATUS_DISTINCT, None, BASELINE, (baseline,))

    s1, s2 = _summary(germ1), _summary(germ2)
    if s1.key == s2.key:
        # a bijection by construction: _first_matching takes each j once
        return _verdict(STATUS_EQUIVALENT, _first_matching(s1.tree, s2.tree), None, ())

    (marks1, contacts1), (marks2, contacts2) = s1.as_first, s2.as_second
    if s1.den != s2.den:
        # each germ's contacts over its own denominator, put over den1 * den2
        contacts1 = [(c * s2.den, p, n, w) for c, p, n, w in contacts1]
        contacts2 = [(c * s1.den, p, n, w) for c, p, n, w in contacts2]
    scans = (
        (KIND_CHAR_EXPONENTS, _branch_ratio, marks1, marks2),
        (KIND_CONTACT, _contact_ratio, contacts1, contacts2),
    )
    # each fact is checked once, where it is made, so the obstructions and
    # the verdict skip their constructors' checks: every count where the
    # summary made its source, every value below where it is first met.
    # k0 is the running maximum, an int pair in lowest terms raised by
    # cross-multiplication, and that value's Fraction.  ``values`` maps
    # each unreduced (num, den) pair and ``reduced`` each value in lowest
    # terms to one Fraction per value, shared by every obstruction of it
    k0, top, bottom = BASELINE, BASELINE.numerator, BASELINE.denominator
    values: dict[tuple[int, int], Fraction] = {}
    reduced = {(top, bottom): BASELINE}
    obstructions = [
        Obstruction(KIND_BASELINE, BASELINE, "always present; keeps the set non-empty")
    ]
    new = tuple.__new__
    for kind, ratio_of, sources1, sources2 in scans:
        for value1, first, n1, w1 in sources1:
            for value2, second, n2, w2 in sources2:
                ratio = ratio_of(value1, value2)
                if ratio is not None:
                    value = values.get(ratio)
                    if value is None:
                        num, den = ratio
                        g = math.gcd(num, den)
                        p, q = key = num // g, den // g
                        if not 0 < p <= q:
                            raise ConsistencyError(
                                f"obstruction value {Fraction(num, den)} outside (0, 1]"
                            )
                        value = reduced.get(key)
                        if value is None:
                            value = reduced[key] = _fraction(p, q)
                        values[ratio] = value
                        if p * bottom > top * q:
                            k0, top, bottom = value, p, q
                    obstructions.append(
                        new(Obstruction, (kind, value, w1 + w2, first, second, n1 * n2))
                    )
    if not top < bottom:
        raise ConsistencyError("distinct verdict needs k0 = max obstruction < 1")
    return _verdict(STATUS_DISTINCT, None, k0, tuple(obstructions))
