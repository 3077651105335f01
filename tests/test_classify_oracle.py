"""Differential test of the contact-tree matcher against exhaustive search.

``oracle_classify`` decides equivalence by exhaustive search: it tries
every bijection of branches in lexicographic order and keeps the first
that carries every beta and every contact over.  Its obstructions come
from enumerating every branch pair and every pair of branch pairs, then
grouping the entries by (kind, source values): the first entry of a
group keeps its witness and counts the rest.  ``classify`` must return
exactly the same verdict on every generated pair: status, bijection, k0
and the obstruction tuple in the same order, witnesses and counts
included.
"""

import itertools
import random

from curvegerm import (
    BASELINE,
    HolderVerdict,
    Obstruction,
    STATUS_DISTINCT,
    STATUS_EQUIVALENT,
    GermValidationError,
    branch,
    branch_obstruction,
    characteristic_data,
    classify,
    conjugate,
    contact_obstruction,
    contact_report,
    germ,
)

DEPTH = 4  # even parts use x^1 .. x^DEPTH; odd cusp terms lie beyond them


def oracle_entries(germ1, germ2):
    """Every obstruction below 1 of two germs with as many branches, one
    per branch pair and one per pair of branch pairs, in enumeration
    order, each as (kind, source values, value, first, second)."""
    r = len(germ1.branches)
    data1 = [characteristic_data(b) for b in germ1.branches]
    data2 = [characteristic_data(b) for b in germ2.branches]
    rep1, rep2 = contact_report(germ1), contact_report(germ2)
    entries = []
    for u in range(r):
        for v in range(r):
            value = branch_obstruction(data1[u], data2[v])
            if value < 1:
                source = (data1[u].beta, data2[v].beta)
                entries.append(("char_exponents", source, value, (u,), (v,)))
    for i in range(r):
        for j in range(i + 1, r):
            for u in range(r):
                for v in range(u + 1, r):
                    source = (rep1.contact[i][j], rep2.contact[u][v])
                    value = contact_obstruction(*source)
                    if value < 1:
                        entries.append(("contact", source, value, (i, j), (u, v)))
    return entries


def witness(kind, first, second):
    if kind == "char_exponents":
        return f"branch {first[0]} of the first germ vs branch {second[0]} of the second"
    return (
        f"contact of branches ({first[0]},{first[1]}) in the first germ vs "
        f"({second[0]},{second[1]}) in the second"
    )


def oracle_classify(germ1, germ2):
    r1, r2 = len(germ1.branches), len(germ2.branches)
    if r1 != r2:
        baseline = Obstruction(
            "baseline",
            BASELINE,
            f"branch counts differ ({r1} vs {r2}); no homeomorphism matches them",
        )
        return HolderVerdict(STATUS_DISTINCT, k0=BASELINE, obstructions=(baseline,))
    data1 = [characteristic_data(b) for b in germ1.branches]
    data2 = [characteristic_data(b) for b in germ2.branches]
    rep1, rep2 = contact_report(germ1), contact_report(germ2)
    for sigma in itertools.permutations(range(r1)):
        if all(data1[i].beta == data2[sigma[i]].beta for i in range(r1)) and all(
            rep1.contact[i][j] == rep2.contact[sigma[i]][sigma[j]]
            for i in range(r1)
            for j in range(i + 1, r1)
        ):
            return HolderVerdict(STATUS_EQUIVALENT, matching=tuple(sigma))
    groups = {}
    for kind, source, value, first, second in oracle_entries(germ1, germ2):
        if (kind, source) in groups:
            groups[kind, source][4] += 1
        else:
            groups[kind, source] = [kind, value, first, second, 1]
    obstructions = [
        Obstruction("baseline", BASELINE, "always present; keeps the set non-empty")
    ] + [
        Obstruction(kind, value, witness(kind, first, second), first, second, count)
        for kind, value, first, second, count in groups.values()
    ]
    k0 = max(o.value for o in obstructions)
    return HolderVerdict(STATUS_DISTINCT, k0=k0, obstructions=tuple(obstructions))


# A spec is (even, odd): even maps x-exponents 1..DEPTH to coefficients in
# {1, 2}; odd is None for a smooth branch y = sum c x^e, or (m, c) for the
# cusp x = t^2, y = sum c t^(2e) + c t^m with m odd and beyond the even
# part.  Small alphabets make ties in contact and in beta common.


def random_spec(rng):
    even = {e: rng.choice((1, 2)) for e in range(1, DEPTH + 1) if rng.random() < 0.5}
    if rng.random() < 0.5:
        return even, None
    return even, (rng.choice((2 * DEPTH + 1, 2 * DEPTH + 3)), rng.choice((1, 2)))


def to_branch(spec):
    even, odd = spec
    if odd is None:
        return branch(1, sorted(even.items()), truncation=DEPTH + 2)
    terms = sorted([(2 * e, c) for e, c in even.items()] + [odd])
    return branch(2, terms, truncation=2 * DEPTH + 4)


def build(specs):
    return germ([to_branch(s) for s in specs])


def random_specs(rng, r):
    """Specs of r branches that form a valid germ."""
    while True:
        specs = [random_spec(rng) for _ in range(r)]
        try:
            build(specs)
        except GermValidationError:
            continue
        return specs


def one_change(rng, specs):
    """The same germ with one coefficient of one branch changed: contacts
    may move, every beta stays.  None when the result is no valid germ."""
    changed = [dict(even) for even, _ in specs]
    i = rng.randrange(len(specs))
    e = rng.randint(1, DEPTH)
    if e in changed[i] and rng.random() < 0.5:
        del changed[i][e]
    else:
        changed[i][e] = 3 - changed[i].get(e, 2)
    new = [(even, odd) for even, (_, odd) in zip(changed, specs)]
    try:
        return build(new)
    except GermValidationError:
        return None


def assert_same(g1, g2):
    verdict = classify(g1, g2)
    assert verdict == oracle_classify(g1, g2)
    if verdict.status == STATUS_DISTINCT and len(g1.branches) == len(g2.branches):
        entries = oracle_entries(g1, g2)
        for kind in ("char_exponents", "contact"):
            counted = sum(o.count for o in verdict.obstructions if o.kind == kind)
            assert counted == sum(1 for e in entries if e[0] == kind)
    return verdict


def test_classify_matches_the_exhaustive_search_on_random_germs():
    rng = random.Random(20240607)
    seen = {STATUS_EQUIVALENT: 0, STATUS_DISTINCT: 0}
    for _ in range(40):
        r = rng.randint(1, 7)
        specs = random_specs(rng, r)
        g = build(specs)
        assert classify(g, g).matching == tuple(range(r))

        # a permuted copy, some cusps replaced by their other conjugate
        order = list(range(r))
        rng.shuffle(order)
        shuffled = germ(
            [conjugate(g.branches[k], rng.randrange(g.branches[k].n)) for k in order]
        )
        seen[assert_same(g, shuffled).status] += 1
        seen[assert_same(shuffled, g).status] += 1

        # an independent germ with as many branches
        other = build(random_specs(rng, r))
        seen[assert_same(g, other).status] += 1

        # the same branches with one contact changed
        changed = one_change(rng, specs)
        if changed is not None:
            seen[assert_same(g, changed).status] += 1
            seen[assert_same(build(specs[::-1]), changed).status] += 1
    assert seen[STATUS_EQUIVALENT] > 40 and seen[STATUS_DISTINCT] > 20


def test_classify_matches_the_exhaustive_search_on_symmetric_trees():
    for r in range(1, 8):
        lines = [branch(1, [(1, k)], truncation=4) for k in range(1, r + 1)]
        g = germ(lines)
        assert assert_same(g, germ(lines[::-1])).matching == tuple(range(r))
        # one line bent into y = r x + x^2: every contact stays 1
        bent = lines[:-1] + [branch(1, [(1, r), (2, 1)], truncation=4)]
        assert assert_same(g, germ(bent[::-1])).status == STATUS_EQUIVALENT
        if r > 1:
            # two lines made tangent: one contact becomes 2
            tangent = lines[:-1] + [branch(1, [(1, r - 1), (2, 1)], truncation=4)]
            assert assert_same(g, germ(tangent)).status == STATUS_DISTINCT


def test_classify_matches_the_exhaustive_search_on_equal_sibling_subtrees():
    # y = a x + b x^2: branches with equal a form classes of contact 2, and
    # the classes are interchangeable subtrees, so a branch may only go to
    # the class its earlier classmates went to
    rng = random.Random(7)
    grid = [branch(1, [(1, a), (2, b)], truncation=4) for a in (1, 2, 3) for b in (1, 2)]
    for _ in range(12):
        first, second = grid[:], grid[:]
        rng.shuffle(first)
        rng.shuffle(second)
        assert assert_same(germ(first), germ(second)).status == STATUS_EQUIVALENT
