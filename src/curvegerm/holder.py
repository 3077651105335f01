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
rather than by search.  Contact is an ultrametric, so each germ's
contact matrix is a rooted tree: its leaves are the branches, labelled
by their characteristic exponents, and an internal node labelled c
splits its branches into the classes of "contact > c".  A bijection
keeps every beta and every contact exactly when it is an isomorphism of
these labelled trees, which canonical codes in the manner of Aho,
Hopcroft and Ullman decide.  By Zariski and Burau, characteristic data
plus pairwise contacts is the complete topological invariant of a germ,
so comparing trees decides the same question as a search over all r!
bijections, and the bijection returned is the one such a search finds
first in lexicographic order.

An obstruction's value depends only on its source values (the two betas,
or the two contacts), so the classifier lists one obstruction per
distinct pair of source values, counting the branch pairs that share it;
a germ has at most r distinct betas and, contact being an ultrametric,
at most r - 1 distinct contacts, so the list has at most
1 + r**2 + (r - 1)**2 entries.

All thresholds are exact rationals; the fourth root is applied only at
presentation time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from curvegerm.contact import _contacts
from curvegerm.invariants import CharacteristicData, characteristic_data
from curvegerm.puiseux import ConsistencyError, CurveGerm

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
    a = pairs1[j - 1][0] * math.prod(q for _, q in pairs2[:i])
    b = pairs2[i - 1][0] * math.prod(n for _, n in pairs1[:j])
    return min(Fraction(a + b, 2 * b), Fraction(a + b, 2 * a))


def branch_obstruction(c1: CharacteristicData, c2: CharacteristicData) -> Fraction:
    """Sharpest pair obstruction separating two branches; 1 when none exists.

    Returns 1 iff the characteristic exponent sequences are identical.
    For equal genus the relevant diagonal obstructions are scanned; for
    different genus the scan runs over the index range that pins the
    larger genus against the last pair of the smaller one.  Values equal
    to 1 do not obstruct and are skipped (at most one index can produce
    them).
    """
    if c1.beta == c2.beta:
        return Fraction(1)
    p1 = c1.pairs or FORMAL_SMOOTH_PAIR
    p2 = c2.pairs or FORMAL_SMOOTH_PAIR
    g1, g2 = len(p1), len(p2)
    if g1 == g2:
        values = [pair_obstruction(p1, i, p2, i) for i in range(1, g1 + 1)]
    elif g1 > g2:
        values = [pair_obstruction(p1, j, p2, g2) for j in range(g2, g1 + 1)]
    else:
        values = [pair_obstruction(p1, g1, p2, i) for i in range(g1, g2 + 1)]
    obstructing = [v for v in values if v != 1]
    return max(obstructing)


def contact_obstruction(cont1: Fraction, cont2: Fraction) -> Fraction:
    """Obstruction from a pair of contact exponents; 1 when they agree."""
    if cont1 < 1 or cont2 < 1:
        raise ValueError("contact exponents are always at least 1")
    if cont1 == cont2:
        return Fraction(1)
    return min(Fraction(cont1, cont2), Fraction(cont2, cont1))


@dataclass(frozen=True)
class Obstruction:
    """One member of the obstruction set E, with its witness.

    ``witness`` names in prose the lexicographically first pair that
    realises the obstruction; ``first`` and ``second`` give it as branch
    indices of the first and of the second germ (``(u,)`` and ``(v,)``
    for characteristic exponents, ``(i, j)`` and ``(u, v)`` for
    contacts), and ``count`` is how many such pairs share its source
    values.
    """

    kind: str
    value: Fraction
    witness: str
    first: tuple[int, ...] = ()
    second: tuple[int, ...] = ()
    count: int = 1

    def __post_init__(self):
        if not 0 < self.value <= 1:
            raise ConsistencyError(f"obstruction value {self.value} outside (0, 1]")
        if self.count < 1:
            raise ConsistencyError(f"obstruction count {self.count} is not positive")

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
    """

    status: str
    matching: tuple[int, ...] | None = None
    k0: Fraction | None = None
    obstructions: tuple[Obstruction, ...] = ()

    def __post_init__(self):
        if self.status == STATUS_EQUIVALENT:
            if self.matching is None:
                raise ConsistencyError("equivalent verdict needs the branch bijection")
        elif self.status == STATUS_DISTINCT:
            values = [o.value for o in self.obstructions]
            if not values or self.k0 != max(values) or not self.k0 < 1:
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


def _contact_tree(c, betas, codes):
    """Canonical code of every node of a germ's contact tree.

    ``c`` is the contact matrix, off the diagonal, as int numerators over
    one denominator.  Returns ``(code, paths)``: ``code[node]`` is the
    node's canonical code and ``paths[i]`` lists the nodes from the root
    down to the leaf of branch i.  ``codes`` interns (label, sorted child
    codes) keys as small integers; share it between two germs whose
    matrices have the same denominator to compare their trees.  Raises
    RuntimeError when the contacts are not an ultrametric, which exact
    contacts always are.
    """
    code: list[int] = []
    paths: list[list[int]] = [[] for _ in betas]

    def build(members):
        node = len(code)
        code.append(-1)
        for i in members:
            paths[i].append(node)
        if len(members) == 1:
            key = ("leaf", betas[members[0]])
        else:
            pairs = list(itertools.combinations(members, 2))
            level = min(c[i][j] for i, j in pairs)
            classes: list[list[int]] = []
            where = {}
            for i in members:
                for k, cls in enumerate(classes):
                    if c[cls[0]][i] > level:
                        break
                else:
                    k = len(classes)
                    classes.append([])
                classes[k].append(i)
                where[i] = k
            for i, j in pairs:
                if (where[i] == where[j]) != (c[i][j] > level):
                    raise RuntimeError(
                        f"contacts are not an ultrametric at branches ({i}, {j}): "
                        "internal bug"
                    )
            key = (level, tuple(sorted(build(cls) for cls in classes)))
        code[node] = codes.setdefault(key, len(codes))
        return code[node]

    build(list(range(len(betas))))
    # build reaches itself through its closure cell: emptying the cell
    # frees it, and the lists it holds, without waiting for the cyclic
    # garbage collector
    del build
    return code, paths


def _first_matching(tree1, tree2) -> tuple[int, ...]:
    """Lexicographically first isomorphism of two contact trees with equal
    root codes, read off leaf by leaf.

    Branch i goes to the smallest unused j whose root path runs through
    nodes of the same codes as i's, each node pair already matched to
    each other or both still free.  Such a partial matching always
    extends to a full one, since matched nodes have equal codes and so
    equal multisets of child codes.
    """
    (code1, paths1), (code2, paths2) = tree1, tree2
    match1: dict[int, int] = {}
    match2: dict[int, int] = {}
    sigma: list[int] = []
    free = list(range(len(paths2)))
    for path1 in paths1:
        for j in free:
            path2 = paths2[j]
            if len(path1) == len(path2) and all(
                code1[a] == code2[b] and match1.get(a, b) == b and match2.get(b, a) == a
                for a, b in zip(path1, path2)
            ):
                break
        else:
            raise RuntimeError("contact trees with equal codes failed to match: internal bug")
        for a, b in zip(path1, path2):
            match1[a], match2[b] = b, a
        free.remove(j)
        sigma.append(j)
    return tuple(sigma)


def _groups(items):
    """Group ``(where, key)`` items by key in one pass.

    Returns ``{key: (first where, count)}`` in order of first
    appearance, so iterating two such dicts nested visits the key pairs
    in the order of their first realising pair of positions.
    """
    groups: dict = {}
    for where, key in items:
        first, count = groups.get(key, (where, 0))
        groups[key] = (first, count + 1)
    return groups


def classify(germ1: CurveGerm, germ2: CurveGerm) -> HolderVerdict:
    """Decide whether the two germs are Holder-distinguishable.

    A homeomorphism of germs maps branches to branches, so differing
    branch counts are certified distinct with the baseline threshold.
    Otherwise the germs are equivalent when some bijection of branches
    preserves the characteristic data branchwise and every pairwise
    contact, which by Zariski and Burau is topological equivalence.
    Such a bijection exists iff the two contact trees have equal
    canonical codes; the one returned is the lexicographically first.
    Failing that, the obstruction set is assembled from the baseline,
    one branch obstruction below 1 per distinct pair (beta in the first
    germ, beta in the second), and one contact obstruction below 1 per
    distinct pair (contact in the first germ, contact in the second).
    Each names the lexicographically first branches, or branch pairs,
    that realise it and counts all that do; one pass over each germ's
    branches and branch pairs collects them.  The list is in the order
    of those first realisations.
    """
    r1, r2 = len(germ1.branches), len(germ2.branches)
    if r1 != r2:
        baseline = Obstruction(
            KIND_BASELINE,
            BASELINE,
            f"branch counts differ ({r1} vs {r2}); no homeomorphism matches them",
        )
        return HolderVerdict(STATUS_DISTINCT, k0=BASELINE, obstructions=(baseline,))

    data1 = [characteristic_data(b) for b in germ1.branches]
    data2 = [characteristic_data(b) for b in germ2.branches]
    # contacts as int numerators over one denominator for both germs
    den = math.lcm(*(b.n for b in germ1.branches), *(b.n for b in germ2.branches))
    matrix1, matrix2 = _contacts(germ1, den), _contacts(germ2, den)

    codes: dict = {}
    tree1 = _contact_tree(matrix1, [d.beta for d in data1], codes)
    tree2 = _contact_tree(matrix2, [d.beta for d in data2], codes)
    if tree1[0][0] == tree2[0][0]:
        return HolderVerdict(STATUS_EQUIVALENT, matching=_first_matching(tree1, tree2))

    obstructions = [
        Obstruction(KIND_BASELINE, BASELINE, "always present; keeps the set non-empty")
    ]
    betas1 = _groups(((u,), d.beta) for u, d in enumerate(data1))
    betas2 = _groups(((v,), d.beta) for v, d in enumerate(data2))
    for first, n1 in betas1.values():
        for second, n2 in betas2.values():
            value = branch_obstruction(data1[first[0]], data2[second[0]])
            if value < 1:
                obstructions.append(
                    Obstruction(
                        KIND_CHAR_EXPONENTS,
                        value,
                        f"branch {first[0]} of the first germ vs branch {second[0]} "
                        "of the second",
                        first,
                        second,
                        n1 * n2,
                    )
                )
    pairs = list(itertools.combinations(range(r1), 2))
    contacts1 = _groups((p, matrix1[p[0]][p[1]]) for p in pairs)
    contacts2 = _groups((p, matrix2[p[0]][p[1]]) for p in pairs)
    for cont1, (first, n1) in contacts1.items():
        for cont2, (second, n2) in contacts2.items():
            if cont1 != cont2:
                # contact_obstruction(cont1 / den, cont2 / den)
                value = Fraction(min(cont1, cont2), max(cont1, cont2))
                obstructions.append(
                    Obstruction(
                        KIND_CONTACT,
                        value,
                        f"contact of branches ({first[0]},{first[1]}) in the first "
                        f"germ vs ({second[0]},{second[1]}) in the second",
                        first,
                        second,
                        n1 * n2,
                    )
                )
    k0 = max(o.value for o in obstructions)
    return HolderVerdict(STATUS_DISTINCT, k0=k0, obstructions=tuple(obstructions))
