import dataclasses
import gc
import itertools
import json
import math
import pathlib
import pickle
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from curvegerm import (
    BASELINE,
    HolderVerdict,
    Obstruction,
    STATUS_DISTINCT,
    STATUS_EQUIVALENT,
    TruncationExceeded,
    branch,
    branch_obstruction,
    characteristic_data,
    classify,
    contact_obstruction,
    contact_report,
    germ,
    germ_to_dict,
    holder_key,
    lipschitz_normal_form,
    load_germ,
    pair_obstruction,
)
from curvegerm import cli, holder, puiseux
from curvegerm.holder import FORMAL_SMOOTH_PAIR, _keyed_tree, _summary
from curvegerm.puiseux import ConsistencyError

DEMO_DATA = pathlib.Path(__file__).resolve().parents[1] / "demos" / "data"


def data_of(*spec, n):
    return characteristic_data(branch(n, [(m, 1) for m in spec], truncation=32))


def test_pair_obstruction_reference_values():
    assert pair_obstruction(((5, 2),), 1, ((3, 2),), 1) == Fraction(4, 5)
    assert pair_obstruction(((5, 2),), 1, ((5, 2),), 1) == 1
    assert pair_obstruction(((3, 2), (7, 2)), 2, ((3, 2),), 1) == Fraction(13, 14)


def test_pair_obstruction_index_bounds():
    with pytest.raises(IndexError):
        pair_obstruction(((5, 2),), 2, ((3, 2),), 1)
    with pytest.raises(IndexError):
        pair_obstruction(((5, 2),), 1, ((3, 2),), 0)


def test_pair_obstruction_range_and_equality_condition():
    import math

    rng = random.Random(31415)
    for _ in range(60):
        pairs1 = tuple(
            (rng.randint(2, 30), rng.randint(2, 4)) for _ in range(rng.randint(1, 3))
        )
        pairs2 = tuple(
            (rng.randint(2, 30), rng.randint(2, 4)) for _ in range(rng.randint(1, 3))
        )
        j, i = rng.randint(1, len(pairs1)), rng.randint(1, len(pairs2))
        value = pair_obstruction(pairs1, j, pairs2, i)
        assert 0 < value <= 1
        a = pairs1[j - 1][0] * math.prod(q for _, q in pairs2[:i])
        b = pairs2[i - 1][0] * math.prod(n for _, n in pairs1[:j])
        assert (value == 1) == (a == b)


def test_branch_obstruction_reference_values():
    assert branch_obstruction(data_of(5, n=2), data_of(3, n=2)) == Fraction(4, 5)
    assert branch_obstruction(data_of(5, n=2), data_of(5, n=2)) == 1
    # genus 1 against genus 2: the index sweep skips the single value 1
    assert branch_obstruction(data_of(3, n=2), data_of(6, 7, n=4)) == Fraction(13, 14)


def test_branch_obstruction_smooth_against_singular():
    smooth = characteristic_data(branch(1, [], truncation=8))
    assert branch_obstruction(smooth, data_of(5, n=2)) == Fraction(7, 10)
    assert branch_obstruction(smooth, data_of(6, 7, n=4)) == Fraction(5, 6)
    assert branch_obstruction(smooth, smooth) == 1


def test_branch_obstruction_is_symmetric_and_detects_equality():
    rng = random.Random(77)
    corpus = []
    while len(corpus) < 12:
        n = rng.choice([1, 2, 3, 4, 6])
        exps = sorted(rng.sample(range(n + 1, 20), rng.randint(1, 3)))
        try:
            corpus.append(characteristic_data(branch(n, [(m, 1) for m in exps], truncation=24)))
        except TruncationExceeded:
            continue
    for c1, c2 in itertools.product(corpus, corpus):
        value = branch_obstruction(c1, c2)
        assert value == branch_obstruction(c2, c1)
        assert 0 < value <= 1
        assert (value == 1) == (c1.beta == c2.beta)


def test_contact_obstruction_values():
    assert contact_obstruction(Fraction(2), Fraction(3)) == Fraction(2, 3)
    assert contact_obstruction(Fraction(5, 2), Fraction(5, 2)) == 1
    assert contact_obstruction(Fraction(3, 2), Fraction(4)) == Fraction(3, 8)
    with pytest.raises(ValueError):
        contact_obstruction(Fraction(1, 2), Fraction(2))


def test_classify_the_two_cusps(cusp25, cusp23):
    verdict = classify(germ([cusp25]), germ([cusp23]))
    assert verdict.status == STATUS_DISTINCT
    assert verdict.k0 == Fraction(4, 5)
    assert abs(verdict.alpha0 - 0.945742) < 1e-5
    kinds = {o.kind for o in verdict.obstructions}
    assert kinds == {"baseline", "char_exponents"}
    assert {o.value for o in verdict.obstructions} == {Fraction(1, 2), Fraction(4, 5)}


def test_classify_contact_obstruction_pair():
    g1 = germ([branch(1, [], truncation=16), branch(1, [(2, 1)], truncation=16)])
    g2 = germ([branch(1, [], truncation=16), branch(1, [(3, 1)], truncation=16)])
    verdict = classify(g1, g2)
    assert verdict.status == STATUS_DISTINCT
    assert verdict.k0 == Fraction(2, 3)
    assert any(o.kind == "contact" and o.value == Fraction(2, 3) for o in verdict.obstructions)


def test_classify_permuted_copy_is_equivalent(cusp25, cusp23):
    verdict = classify(germ([cusp25, cusp23]), germ([cusp23, cusp25]))
    assert verdict.status == STATUS_EQUIVALENT
    # distinct characteristic data forces the swap
    assert verdict.matching == (1, 0)

    axis = branch(1, [], truncation=16)
    parabola = branch(1, [(2, 1)], truncation=16)
    verdict = classify(germ([axis, parabola]), germ([parabola, axis]))
    assert verdict.status == STATUS_EQUIVALENT
    assert sorted(verdict.matching) == [0, 1]


def test_classify_branch_count_mismatch_uses_the_baseline():
    g1 = germ([branch(1, [], truncation=16)])
    g2 = germ([branch(1, [], truncation=16), branch(1, [(2, 1)], truncation=16)])
    verdict = classify(g1, g2)
    assert verdict.status == STATUS_DISTINCT
    assert verdict.k0 == BASELINE
    assert [o.kind for o in verdict.obstructions] == ["baseline"]


def test_classify_self_is_equivalent_everywhere(classify_corpus):
    for g in classify_corpus:
        verdict = classify(g, g)
        assert verdict.status == STATUS_EQUIVALENT
        assert verdict.matching == tuple(range(len(g.branches)))


def test_classify_is_symmetric(classify_corpus):
    for g1, g2 in itertools.combinations(classify_corpus, 2):
        forward = classify(g1, g2)
        backward = classify(g2, g1)
        assert forward.status == backward.status
        assert forward.k0 == backward.k0
        if forward.status == STATUS_EQUIVALENT:
            inverse = tuple(backward.matching.index(i) for i in range(len(backward.matching)))
            assert sorted(inverse) == list(range(len(inverse)))
        else:
            # the compacted certificate read backwards: same entries, the
            # two germs' witnesses swapped
            assert len(forward.obstructions) == len(backward.obstructions)
            assert {
                (o.kind, o.value, o.count, o.first, o.second) for o in forward.obstructions
            } == {
                (o.kind, o.value, o.count, o.second, o.first) for o in backward.obstructions
            }


def test_certified_thresholds_stay_in_the_baseline_window(classify_corpus):
    for g1, g2 in itertools.combinations(classify_corpus, 2):
        verdict = classify(g1, g2)
        if verdict.status == STATUS_DISTINCT:
            assert BASELINE <= verdict.k0 < 1
            assert all(0 < o.value < 1 for o in verdict.obstructions)


def test_equivalent_matching_preserves_the_invariants(classify_corpus):
    for g1, g2 in itertools.product(classify_corpus, classify_corpus):
        verdict = classify(g1, g2)
        if verdict.status != STATUS_EQUIVALENT:
            continue
        sigma = verdict.matching
        d1 = [characteristic_data(b) for b in g1.branches]
        d2 = [characteristic_data(b) for b in g2.branches]
        assert all(d1[i].beta == d2[sigma[i]].beta for i in range(len(sigma)))
        r1, r2 = contact_report(g1), contact_report(g2)
        for i in range(len(sigma)):
            for j in range(i + 1, len(sigma)):
                assert r1.contact[i][j] == r2.contact[sigma[i]][sigma[j]]


def test_normal_form_does_not_change_the_verdict(cusp25, cusp23, genus2, smooth_axis):
    # Scoped to germs whose branchwise normal forms stay a valid germ with
    # the same pairwise contacts; see the normal-form truncation note in
    # the invariants module.
    scoped = [
        germ([cusp25]),
        germ([cusp23]),
        germ([genus2]),
        germ([smooth_axis]),
        germ([cusp23, cusp25]),
    ]
    for g1, g2 in itertools.product(scoped, scoped):
        before = classify(g1, g2)
        after = classify(
            germ([lipschitz_normal_form(b) for b in g1.branches]),
            germ([lipschitz_normal_form(b) for b in g2.branches]),
        )
        assert before.status == after.status
        assert before.k0 == after.k0


def test_classify_has_no_branch_cap():
    lines = [branch(1, [(1, k)], truncation=4) for k in range(1, 10)]
    g = germ(lines)
    assert classify(g, g).matching == tuple(range(9))
    # 50 smooth branches, contact(i, j) = min(i, j) + 1 for i != j, against
    # the reverse order; branches 48 and 49 are interchangeable
    chain = [branch(1, [(k, 1) for k in range(1, i + 1)], truncation=51) for i in range(50)]
    verdict = classify(germ(chain), germ(chain[::-1]))
    assert verdict.status == STATUS_EQUIVALENT
    assert verdict.matching == tuple(range(49, 1, -1)) + (0, 1)


def test_classify_lists_one_obstruction_per_distinct_value_pair():
    # 30 smooth branches each: contact(i, j) = min(i, j) + 1 against
    # 2 (min(i, j) + 1), so 435^2 pairs of branch pairs but only 29
    # distinct contacts per germ
    r = 30
    chain = [branch(1, [(k, 1) for k in range(1, i + 1)], truncation=r + 1) for i in range(r)]
    doubled = [
        branch(1, [(2 * k, 1) for k in range(1, i + 1)], truncation=2 * r + 1) for i in range(r)
    ]
    g1, g2 = germ(chain), germ(doubled)
    verdict = classify(g1, g2)
    assert verdict.status == STATUS_DISTINCT
    assert verdict.k0 == Fraction(29, 30)
    assert len(verdict.obstructions) <= 1 + r**2 + (r - 1) ** 2
    # the counts add up to every pair of branch pairs whose contacts differ
    pairs = list(itertools.combinations(range(r), 2))
    c1, c2 = contact_report(g1).contact, contact_report(g2).contact
    n1 = Counter(c1[i][j] for i, j in pairs)
    n2 = Counter(c2[i][j] for i, j in pairs)
    differ = len(pairs) ** 2 - sum(n1[c] * n2[c] for c in n1)
    assert sum(o.count for o in verdict.obstructions if o.kind == "contact") == differ
    # contact 1 (29 pairs) against 2 (29 pairs), then against 4 (28 pairs)
    _, one_two, one_four = (o.to_dict() for o in verdict.obstructions[:3])
    assert one_two["witness"] == (
        "contact of branches (0,1) in the first germ vs (0,1) in the second"
    )
    assert (one_two["first"], one_two["second"], one_two["count"]) == ([0, 1], [0, 1], 841)
    assert (one_four["first"], one_four["second"], one_four["count"]) == ([0, 1], [1, 2], 812)


def caterpillar(r):
    # the smooth chain: branch k is y = x^2 + ... + x^(k+2), truncation k + 4,
    # so contact(i, j) = min(i, j) + 3 and every node splits one leaf off
    branches = [branch(1, [(m, 1) for m in range(2, k + 3)], truncation=k + 4) for k in range(r)]
    return branches, [[None if i == j else min(i, j) + 3 for j in range(r)] for i in range(r)]


def balanced(r):
    # smooth branches that first differ at x^level, where the balanced split
    # of their index range parts them
    terms = [[] for _ in range(r)]
    contact = [[None] * r for _ in range(r)]

    def split(lo, hi, level):
        if hi - lo > 1:
            mid = (lo + hi) // 2
            for i in range(lo, hi):
                terms[i].append((level, 1 if i < mid else 2))
            for i in range(lo, mid):
                for j in range(mid, hi):
                    contact[i][j] = contact[j][i] = level
            split(lo, mid, level + 1)
            split(mid, hi, level + 1)

    split(0, r, 1)
    return [branch(1, t, truncation=12) for t in terms], contact


@pytest.mark.parametrize("make, depth", [(caterpillar, 300), (balanced, 10)])
def test_contact_tree_reads_at_most_four_r_squared_entries(make, depth, monkeypatch):
    # the walk that validates the germ builds its tree from at most r**2
    # coefficient comparisons; one walk per branch pair made about r**3 / 6
    # on the caterpillar
    r = 300
    branches, contact = make(r)
    lifted, calls = puiseux._lifted, []
    monkeypatch.setattr(puiseux, "_lifted", lambda *args: calls.append(args) or lifted(*args))
    g = germ(branches)
    assert len(calls) <= r * r
    den, (levels, parents, leaves) = g._tree
    assert den == 1 and len(levels) == len(parents) == 2 * r - 1
    paths = []
    for node in leaves:
        path = []
        while node >= 0:
            path.append(node)
            node = parents[node]
        paths.append(path[::-1])
    assert max(len(path) for path in paths) == depth
    for i, j in itertools.combinations(range(0, r, 7), 2):
        # the deepest common node of two root paths is at their contact
        common = [a for a, b in zip(paths[i], paths[j]) if a == b]
        assert levels[common[-1]] == contact[i][j]


def test_key_is_the_canonical_tree():
    # contacts min(i, j) + 1 over den 2: a node splits one leaf off at each
    # of the levels 1/2, 1 and 3/2
    chain = ((1, None, 2, None, 3, None, None), (-1, 0, 0, 2, 2, 4, 4), (1, 3, 5, 6))
    key = _keyed_tree(chain, 2, [(1,), (2, 3), (1,), (2, 5)])[0][0]
    # flat: each node's sorted child keys, its level between neighbours
    inner = ((1,), (3, 2), (2, 5))
    assert key == ((1,), (1, 2)) + inner + ((1, 1), (2, 3))
    # the same tree over den 6, its branches listed in the order 3, 1, 0, 2
    # and its nodes numbered otherwise, has the same key
    scaled = ((3, 6, 9, None, None, None, None), (-1, 0, 1, 2, 1, 0, 2), (3, 4, 5, 6))
    again = _keyed_tree(scaled, 6, [(2, 5), (2, 3), (1,), (1,)])[0][0]
    assert again == key


def one_term_caterpillar(r):
    # branch k is y = x^(k+1), k = 1..r: contact(i, j) = min(i, j) + 2, so
    # every node splits one leaf off and the tree has depth r - 1
    return [branch(1, [(k + 1, 1)], truncation=r + 2) for k in range(1, r + 1)]


def test_deep_caterpillar_classifies_against_its_reverse(tmp_path, capsys):
    # a tree deeper than the interpreter's recursion limit allows for one
    # nested tuple per node; flat keys compare without recursion
    r = 600
    branches = one_term_caterpillar(r)
    g, h = germ(branches), germ(branches[::-1])
    verdict = classify(g, h)
    assert verdict.status == STATUS_EQUIVALENT
    # the last two branches share the deepest node, so 0 and 1 of the
    # reversed germ go to them in order
    assert verdict.matching == tuple(range(r - 1, 1, -1)) + (0, 1)
    paths = [str(tmp_path / "caterpillar.json"), str(tmp_path / "reversed.json")]
    for path, built in zip(paths, (g, h)):
        pathlib.Path(path).write_text(json.dumps(germ_to_dict(built)))
    assert cli.main(["classes", *paths, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["classes"] == [paths]


def test_sibling_deep_caterpillars_get_one_key_in_any_order():
    # two caterpillars of depth 600 under one root, y = c*x + x^(k+1) for
    # c in {1, 2}: sorting the root's children compares two deep keys
    r = 600
    branches = [branch(1, [(1, c), (k + 1, 1)], truncation=r + 2)
                for c in (1, 2) for k in range(1, r + 1)]
    shuffled = branches[:]
    random.Random(26).shuffle(shuffled)
    g, h = germ(branches), germ(shuffled)
    assert holder_key(g) == holder_key(h)
    assert classify(g, h).status == STATUS_EQUIVALENT


def test_matching_tells_look_alike_clusters_apart_by_level():
    # two clusters of two smooth branches each, alike but for their
    # levels: contact 3 inside the first, 2 inside the second
    close = [branch(1, [(1, 1), (2, 1), (3, c)], truncation=3) for c in (1, 2)]
    loose = [branch(1, [(1, 2), (2, c)], truncation=3) for c in (1, 2)]
    g, h = germ(close + loose), germ(loose + close)
    verdict = classify(g, h)
    assert verdict.matching == (2, 3, 0, 1)
    c1, c2 = contact_report(g).contact, contact_report(h).contact
    s = verdict.matching
    assert all(c1[i][j] == c2[s[i]][s[j]] for i in range(4) for j in range(4) if i != j)


def test_verdict_consistency_is_enforced():
    with pytest.raises(ValueError, match="bijection"):
        HolderVerdict(STATUS_EQUIVALENT)
    with pytest.raises(ValueError, match="k0"):
        HolderVerdict(
            STATUS_DISTINCT,
            k0=Fraction(1, 3),
            obstructions=(Obstruction("baseline", BASELINE, "x"),),
        )
    with pytest.raises(ValueError, match="outside"):
        Obstruction("contact", Fraction(3, 2), "too big")
    with pytest.raises(ValueError, match="count"):
        Obstruction("contact", Fraction(1, 2), "x", (0, 1), (0, 1), 0)
    with pytest.raises(ConsistencyError, match="unknown status"):
        HolderVerdict("undecided")


# The obstruction assembly of classify before its scan ran on ints: every
# value a Fraction from the start, ``min`` and ``max`` over Fractions, k0
# their maximum.  Kept here as an oracle, with no private helper of
# holder: the status and sigma come from a lexicographic backtracking
# search over the public ``characteristic_data`` and ``contact_report``,
# and the groups of source values from a plain dict.


def fraction_pair_obstruction(pairs1, j, pairs2, i):
    a = pairs1[j - 1][0] * math.prod(q for _, q in pairs2[:i])
    b = pairs2[i - 1][0] * math.prod(n for _, n in pairs1[:j])
    return min(Fraction(a + b, 2 * b), Fraction(a + b, 2 * a))


def fraction_branch_obstruction(c1, c2):
    if c1.beta == c2.beta:
        return Fraction(1)
    p1 = c1.pairs or FORMAL_SMOOTH_PAIR
    p2 = c2.pairs or FORMAL_SMOOTH_PAIR
    g1, g2 = len(p1), len(p2)
    if g1 == g2:
        values = [fraction_pair_obstruction(p1, i, p2, i) for i in range(1, g1 + 1)]
    elif g1 > g2:
        values = [fraction_pair_obstruction(p1, j, p2, g2) for j in range(g2, g1 + 1)]
    else:
        values = [fraction_pair_obstruction(p1, g1, p2, i) for i in range(g1, g2 + 1)]
    return max(v for v in values if v != 1)


def first_bijection(betas1, c1, betas2, c2):
    """The lexicographically first sigma carrying every beta and every
    contact over, by backtracking; None when there is none."""
    r = len(betas1)
    sigma = []

    def extend(i):
        if i == r:
            return True
        for j in range(r):
            if j not in sigma and betas1[i] == betas2[j] and all(
                c1[k][i] == c2[u][j] for k, u in enumerate(sigma)
            ):
                sigma.append(j)
                if extend(i + 1):
                    return True
                sigma.pop()
        return False

    return tuple(sigma) if extend(0) else None


def first_and_count(items):
    groups = {}
    for where, key in items:
        first, count = groups.get(key, (where, 0))
        groups[key] = (first, count + 1)
    return groups


def fraction_classify(germ1, germ2):
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
    matrix1, matrix2 = contact_report(germ1).contact, contact_report(germ2).contact
    sigma = first_bijection(
        [d.beta for d in data1], matrix1, [d.beta for d in data2], matrix2
    )
    if sigma is not None:
        return HolderVerdict(STATUS_EQUIVALENT, matching=sigma)
    obstructions = [Obstruction("baseline", BASELINE, "always present; keeps the set non-empty")]
    betas1 = first_and_count(((u,), d.beta) for u, d in enumerate(data1))
    betas2 = first_and_count(((v,), d.beta) for v, d in enumerate(data2))
    for first, n1 in betas1.values():
        for second, n2 in betas2.values():
            value = fraction_branch_obstruction(data1[first[0]], data2[second[0]])
            if value < 1:
                witness = f"branch {first[0]} of the first germ vs branch {second[0]} of the second"
                obstructions.append(
                    Obstruction("char_exponents", value, witness, first, second, n1 * n2)
                )
    pairs = list(itertools.combinations(range(r1), 2))
    contacts1 = first_and_count((p, matrix1[p[0]][p[1]]) for p in pairs)
    contacts2 = first_and_count((p, matrix2[p[0]][p[1]]) for p in pairs)
    for cont1, (first, n1) in contacts1.items():
        for cont2, (second, n2) in contacts2.items():
            value = min(cont1 / cont2, cont2 / cont1)
            if value < 1:
                witness = (
                    f"contact of branches ({first[0]},{first[1]}) in the first germ vs "
                    f"({second[0]},{second[1]}) in the second"
                )
                obstructions.append(
                    Obstruction("contact", value, witness, first, second, n1 * n2)
                )
    k0 = max(o.value for o in obstructions)
    return HolderVerdict(STATUS_DISTINCT, k0=k0, obstructions=tuple(obstructions))


def test_classify_matches_the_fraction_scan(generated_germs):
    demos = [load_germ(path) for path in sorted(DEMO_DATA.glob("*.json"))]
    germs = [g for _, g, _ in generated_germs] + demos
    kinds = Counter()
    for g1, g2 in itertools.product(germs, germs):
        verdict = classify(g1, g2)
        # dataclass equality: status, matching, k0 and the obstruction
        # tuple in order, each with kind, value, witness, first, second, count
        assert verdict == fraction_classify(g1, g2)
        kinds.update(o.kind for o in verdict.obstructions)
    assert kinds["char_exponents"] > 0 and kinds["contact"] > 0


def contact_groups_of_the_matrix(g, den):
    """The grouping the summary's tree pass replaces: every pair of the
    contact report's matrix in index order, grouped by its contact (an
    int numerator over den) with its first pair and count."""
    contact, groups = contact_report(g).contact, {}
    for i, j in itertools.combinations(range(len(contact)), 2):
        level = contact[i][j] * den
        assert level.denominator == 1
        first, count = groups.get(level.numerator, ((i, j), 0))
        groups[level.numerator] = (first, count + 1)
    return groups


def test_summary_derives_the_contacts_and_the_beta_groups(generated_germs):
    demos = [load_germ(path) for path in sorted(DEMO_DATA.glob("*.json"))]
    shared = contacts_shared = 0
    for g in [g for _, g, _ in generated_germs] + demos:
        summary = _summary(g)
        expected = contact_groups_of_the_matrix(g, summary.den)
        # the same groups in the same order, each with its first pair and count
        assert list(summary.contact_groups.items()) == list(expected.items())
        contacts_shared += any(n > 1 for _, n in expected.values())
        # marks group the branches as betas do: the same groups, in the
        # same order, each with the same first branch and count
        by_beta: dict = {}
        for u, beta in enumerate(characteristic_data(b).beta for b in g.branches):
            first, count = by_beta.get(beta, (u, 0))
            by_beta[beta] = (first, count + 1)
        assert list(summary.mark_groups.values()) == [((u,), n) for u, n in by_beta.values()]
        shared += any(n > 1 for _, n in by_beta.values())
    assert shared > 10 and contacts_shared > 10, (shared, contacts_shared)


def test_contact_groups_of_the_long_caterpillar_in_closed_form():
    # branch k is y = x^(k+1), k = 1..r: branch i (from 0) parts from every
    # later branch at x^(i+2), so the contact i + 2 has first pair (i, i + 1)
    # and r - 1 - i pairs
    r = 1000
    g = germ([branch(1, [(k + 1, 1)], truncation=r + 2) for k in range(1, r + 1)])
    groups = _summary(g).contact_groups
    assert list(groups.items()) == [(i + 2, ((i, i + 1), r - 1 - i)) for i in range(r - 1)]


def test_public_obstructions_match_the_fraction_scan(generated_germs):
    data = sorted(
        {characteristic_data(b) for _, g, _ in generated_germs for b in g.branches},
        key=lambda d: d.beta,
    )
    for c1, c2 in itertools.product(data, data):
        assert branch_obstruction(c1, c2) == fraction_branch_obstruction(c1, c2)
        p1, p2 = c1.pairs or FORMAL_SMOOTH_PAIR, c2.pairs or FORMAL_SMOOTH_PAIR
        for j, i in itertools.product(range(1, len(p1) + 1), range(1, len(p2) + 1)):
            assert pair_obstruction(p1, j, p2, i) == fraction_pair_obstruction(p1, j, p2, i)
    contacts = [Fraction(p, q) for q in (1, 2, 3, 6) for p in range(q, 4 * q + 1)]
    for cont1, cont2 in itertools.product(contacts, contacts):
        expected = min(cont1 / cont2, cont2 / cont1)
        assert contact_obstruction(cont1, cont2) == expected
    assert contact_obstruction(2, 3) == Fraction(2, 3)


#: Characteristic sequences (beta_0; beta_1, ..., beta_g) up to genus 4,
#: some sharing a prefix, so that pairs of every genus gap reach the scan.
DEEP_GENUS = [
    (1,),
    (2, 3),
    (2, 5),
    (3, 4),
    (4, 6, 7),
    (4, 6, 9),
    (6, 9, 10),
    (8, 12, 14, 15),
    (8, 12, 14, 17),
    (8, 12, 18, 19),
    (16, 24, 28, 30, 31),
    (16, 24, 28, 30, 33),
]


def test_marks_scan_matches_the_fraction_scan_up_to_genus_four():
    branches = [branch(n, [(m, 1) for m in rest], truncation=40) for n, *rest in DEEP_GENUS]
    data = [characteristic_data(b) for b in branches]
    assert [d.beta for d in data] == DEEP_GENUS
    assert {d.genus for d in data} == {0, 1, 2, 3, 4}
    for c1, c2 in itertools.product(data, data):
        assert branch_obstruction(c1, c2) == fraction_branch_obstruction(c1, c2)
        p1, p2 = c1.pairs or FORMAL_SMOOTH_PAIR, c2.pairs or FORMAL_SMOOTH_PAIR
        for j, i in itertools.product(range(1, len(p1) + 1), range(1, len(p2) + 1)):
            assert pair_obstruction(p1, j, p2, i) == fraction_pair_obstruction(p1, j, p2, i)
    # and through classify, which reads the marks each germ keeps
    germs = [germ([b]) for b in branches]
    germs += [germ([b1, b2]) for b1, b2 in itertools.combinations(branches[-5:], 2)]
    for g1, g2 in itertools.product(germs, germs):
        assert classify(g1, g2) == fraction_classify(g1, g2)


def test_verdict_checks_reject_inexact_values():
    with pytest.raises(ConsistencyError, match="not an exact Fraction"):
        Obstruction("contact", 0.5, "x", (0, 1), (0, 1), 1)
    baseline = Obstruction("baseline", BASELINE, "x")
    with pytest.raises(ConsistencyError, match="not an exact Fraction"):
        HolderVerdict(STATUS_DISTINCT, k0=0.5, obstructions=(baseline,))
    with pytest.raises(ConsistencyError, match="not an exact Fraction"):
        HolderVerdict(STATUS_DISTINCT, k0=None, obstructions=(baseline,))


def test_equivalent_verdict_needs_a_bijection():
    for matching in [(0, 0, 5), (1, 2), (0, 0), (-1, 0)]:
        with pytest.raises(ConsistencyError, match="not a bijection"):
            HolderVerdict(STATUS_EQUIVALENT, matching=matching)
    for matching in [(), (0,), (2, 0, 1)]:
        assert HolderVerdict(STATUS_EQUIVALENT, matching=matching).matching == matching


@pytest.mark.parametrize(
    "k0, values",
    [
        (Fraction(5, 6), (BASELINE, Fraction(2, 3), Fraction(3, 4))),  # above all, not among
        (Fraction(2, 3), (BASELINE, Fraction(2, 3), Fraction(3, 4))),  # among, below the top
        (Fraction(3, 5), (BASELINE, Fraction(2, 3), Fraction(3, 4))),  # neither
        (Fraction(1), (BASELINE, Fraction(2, 3), Fraction(1))),  # the maximum, but 1
        (Fraction(3, 4), ()),  # no obstruction at all
    ],
)
def test_distinct_verdict_rejects_a_wrong_k0(k0, values):
    obstructions = tuple(Obstruction("contact", v, "x", (0, 1), (0, 1)) for v in values)
    with pytest.raises(ConsistencyError, match="k0 = max obstruction < 1"):
        HolderVerdict(STATUS_DISTINCT, k0=k0, obstructions=obstructions)


@pytest.mark.parametrize(
    "value", [Fraction(0), Fraction(-1, 2), Fraction(3, 2), Fraction(100, 99)]
)
def test_obstruction_value_must_lie_in_the_unit_interval(value):
    with pytest.raises(ConsistencyError, match=r"outside \(0, 1\]"):
        Obstruction("contact", value, "x", (0, 1), (0, 1))


BAD_FIELDS = [
    pytest.param("value", 0.5, "not an exact Fraction", id="float-value"),
    pytest.param("value", Fraction(3, 2), r"outside \(0, 1\]", id="value-above-1"),
    pytest.param("count", 0, "count 0 is not positive", id="count-0"),
]


def _built_by(path, fields):
    good = Obstruction("contact", Fraction(1, 2), "x", (0, 1), (0, 1), 2)
    if path == "constructor":
        return Obstruction(*fields)
    if path == "_make":
        return Obstruction._make(fields)
    if path == "_replace":
        return good._replace(**dict(zip(Obstruction._fields, fields)))
    # unpickling: an obstruction made without the checks is pickled, and
    # loading it builds it again through the constructor
    return pickle.loads(pickle.dumps(tuple.__new__(Obstruction, fields)))


@pytest.mark.parametrize("path", ["constructor", "_make", "_replace", "unpickling"])
@pytest.mark.parametrize("field, bad, message", BAD_FIELDS)
def test_every_public_way_to_build_an_obstruction_checks_it(path, field, bad, message):
    fields = dict(
        kind="contact", value=Fraction(1, 3), witness="x", first=(0, 1), second=(1, 2), count=4
    )
    assert _built_by(path, tuple(fields.values())) == tuple(fields.values())
    fields[field] = bad
    with pytest.raises(ConsistencyError, match=message):
        _built_by(path, tuple(fields.values()))


def test_an_obstruction_is_an_immutable_named_tuple():
    o = Obstruction("contact", Fraction(1, 2), "x", (0, 1), (0, 1), 9)
    assert o == ("contact", Fraction(1, 2), "x", (0, 1), (0, 1), 9)
    kind, value, *_, count = o
    assert (kind, value, count, o[1], o.count) == ("contact", Fraction(1, 2), 9, o.value, 9)
    assert repr(o) == (
        "Obstruction(kind='contact', value=Fraction(1, 2), witness='x', "
        "first=(0, 1), second=(0, 1), count=9)"
    )
    assert Obstruction("baseline", BASELINE, "x")[3:] == ((), (), 1)
    with pytest.raises(AttributeError):
        o.value = Fraction(1, 3)
    with pytest.raises(AttributeError):
        o.extra = 1
    assert pickle.loads(pickle.dumps(o)) == o


def _values(shared):
    """The values 1/2, 2/3, 2/3, 2/3 and 1, the three 2/3 one Fraction
    object or three equal ones."""
    two_thirds = Fraction(2, 3)
    values = [BASELINE]
    values += [two_thirds if shared else Fraction(2, 3) for _ in range(3)] + [Fraction(1)]
    assert (len({id(v) for v in values}) == 3) == shared
    return values


@pytest.mark.parametrize("shared", [True, False])
def test_the_k0_check_reads_each_value_object_once(shared):
    values = _values(shared)
    below_one = tuple(Obstruction("contact", v, "x", (0, 1), (0, 1)) for v in values[:-1])
    with_one = below_one + (Obstruction("contact", values[-1], "x", (0, 1), (0, 1)),)
    for k0 in (values[1], Fraction(2, 3)):
        assert HolderVerdict(STATUS_DISTINCT, k0=k0, obstructions=below_one).k0 == k0
    for k0, obstructions in [
        (BASELINE, below_one),  # among the values, but not the maximum
        (Fraction(3, 4), below_one),  # above every value, but not among them
        (Fraction(1), with_one),  # the maximum and among them, but 1
    ]:
        with pytest.raises(ConsistencyError, match="k0 = max obstruction < 1"):
            HolderVerdict(STATUS_DISTINCT, k0=k0, obstructions=obstructions)


def test_classify_shares_one_fraction_per_value_with_k0():
    # the two caterpillars y = x^(k+1) and y = x^(k+2), k = 1..6
    g1 = germ([branch(1, [(k + 1, 1)], truncation=9) for k in range(1, 7)])
    g2 = germ([branch(1, [(k + 2, 1)], truncation=9) for k in range(1, 7)])
    verdict = classify(g1, g2)
    values = [o.value for o in verdict.obstructions]
    assert len({id(v) for v in values}) == len(set(values)) < len(values)
    assert any(v is verdict.k0 for v in values)


def test_a_distinct_classify_on_built_summaries_makes_no_fraction(monkeypatch):
    # three branches each, of contact denominators 2 and 6, so the contacts
    # are rescaled: each value is reduced as ints and built from
    # them, so the constructor never runs
    g1 = germ([branch(1, [], truncation=16), branch(1, [(2, 1)], truncation=16),
               branch(2, [(3, 1)], truncation=16)])
    g2 = germ([branch(1, [(3, 1)], truncation=16), branch(3, [(4, 1)], truncation=16),
               branch(2, [(5, 1)], truncation=16)])
    classify(g1, g2)  # builds each germ's summary and sources
    new, calls = Fraction.__new__, []
    monkeypatch.setattr(Fraction, "__new__", lambda *args, **kw: calls.append(1) or new(*args, **kw))
    verdict = classify(g1, g2)
    monkeypatch.undo()
    assert calls == []
    assert verdict == fraction_classify(g1, g2)
    assert verdict.k0 == Fraction(17, 18) and len(verdict.obstructions) == 10


def test_every_value_classify_hands_out_is_reduced(generated_germs):
    demos = [load_germ(path) for path in sorted(DEMO_DATA.glob("*.json"))]
    germs = [g for _, g, _ in generated_germs] + demos
    distinct = 0
    for g1, g2 in itertools.product(germs, germs):
        v = classify(g1, g2)
        if v.status == STATUS_DISTINCT:
            distinct += 1
            for value in {id(o.value): o.value for o in v.obstructions}.values():
                p, q = value.numerator, value.denominator
                assert type(value) is Fraction and q > 0 and math.gcd(p, q) == 1, value
                assert (str(value), hash(value)) == (str(Fraction(p, q)), hash(Fraction(p, q)))
            assert math.gcd(v.k0.numerator, v.k0.denominator) == 1 and v.k0.denominator > 0
    assert distinct > 0


def test_a_distinct_verdict_keeps_few_bytes_per_obstruction():
    # the caterpillars y = x^(k+1) and y = x^(k+2), k = 1..120: 14,044
    # obstructions.  Named tuples keep about 280 B each on Python 3.11,
    # frozen dataclasses about 510 B
    r = 120
    g1 = germ([branch(1, [(k + 1, 1)], truncation=r + 3) for k in range(1, r + 1)])
    g2 = germ([branch(1, [(k + 2, 1)], truncation=r + 3) for k in range(1, r + 1)])
    classify(g1, g2)  # builds each germ's summary and groups outside the count
    gc.collect()
    tracemalloc.start()
    try:
        verdict = classify(g1, g2)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(verdict.obstructions) == 14_044
    assert kept / len(verdict.obstructions) <= 350


def test_classify_checks_each_value_where_it_is_made(monkeypatch):
    g1 = germ([branch(1, [], truncation=16), branch(1, [(2, 1)], truncation=16)])
    g2 = germ([branch(1, [], truncation=16), branch(1, [(3, 1)], truncation=16)])
    monkeypatch.setattr(holder, "_contact_ratio", lambda cont1, cont2: (3, 2))
    with pytest.raises(ConsistencyError, match=r"outside \(0, 1\]"):
        classify(g1, g2)


def test_classify_checks_each_source_count():
    g1, g2 = germ([branch(2, [(5, 1)], truncation=8)]), germ([branch(2, [(3, 1)], truncation=8)])
    groups = _summary(g1).mark_groups
    marks, (first, _) = next(iter(groups.items()))
    groups[marks] = (first, 0)
    with pytest.raises(ConsistencyError, match="count 0 is not positive"):
        classify(g1, g2)


def test_classify_checks_that_k0_is_below_one(monkeypatch):
    # every contact obstruction is 1, which lies in (0, 1], so only the
    # final check on the running maximum can catch it
    g1 = germ([branch(1, [], truncation=16), branch(1, [(2, 1)], truncation=16)])
    g2 = germ([branch(1, [], truncation=16), branch(1, [(3, 1)], truncation=16)])
    monkeypatch.setattr(holder, "_contact_ratio", lambda cont1, cont2: (2, 2))
    with pytest.raises(ConsistencyError, match="k0 = max obstruction < 1"):
        classify(g1, g2)


def test_a_germs_sources_are_built_once_for_every_partner():
    g = germ([branch(2, [(5, 1)], truncation=8), branch(1, [(2, 1)], truncation=8)])
    partners = [
        germ([branch(2, [(3, 1)], truncation=8), branch(1, [(2, 1)], truncation=8)]),
        germ([branch(1, [(3, 1)], truncation=8), branch(3, [(4, 1)], truncation=8)]),
    ]
    summary = _summary(g)
    classify(g, partners[0])
    classify(partners[0], g)
    as_first, as_second = summary.as_first, summary.as_second
    # marks, then contacts as numerators over the germ's den = 2; the
    # second partner's den is 3, so classify rescales against it
    assert as_first == (
        (
            (((5, 2),), (0,), 1, "branch 0 of the first germ vs "),
            (((1, 1),), (1,), 1, "branch 1 of the first germ vs "),
        ),
        ((4, (0, 1), 1, "contact of branches (0,1) in the first germ vs "),),
    )
    assert as_second[1] == ((4, (0, 1), 1, "(0,1) in the second"),)
    assert [_summary(p).den for p in partners] == [2, 3]
    for partner in partners:
        for verdict in (classify(g, partner), classify(partner, g)):
            assert verdict.status == STATUS_DISTINCT
        assert summary.as_first is as_first and summary.as_second is as_second


def test_the_constructor_accepts_every_verdict_classify_builds(generated_germs):
    # classify builds its verdicts without the constructor; the
    # constructor's checks must pass on every one of them
    demos = [load_germ(path) for path in sorted(DEMO_DATA.glob("*.json"))]
    germs = [g for _, g, _ in generated_germs] + demos
    statuses = Counter()
    for g1, g2 in itertools.product(germs, germs):
        v = classify(g1, g2)
        assert HolderVerdict(v.status, v.matching, v.k0, v.obstructions) == v
        statuses[v.status, g1 in demos and g2 in demos] += 1
        if v.status == STATUS_DISTINCT:
            # among the values but not their maximum, or below them all
            below = BASELINE if v.k0 > BASELINE else v.k0 / 2
            with pytest.raises(ConsistencyError, match="k0 = max obstruction < 1"):
                dataclasses.replace(v, k0=below)
    assert len(germs) == 88 and len(demos) == 8
    assert statuses[STATUS_EQUIVALENT, True] + statuses[STATUS_DISTINCT, True] == 64
    assert min(statuses.values()) > 0, statuses


def test_verdict_serialization():
    verdict = classify(
        germ([branch(2, [(5, 1)], truncation=8)]),
        germ([branch(2, [(3, 1)], truncation=8)]),
    )
    payload = verdict.to_dict()
    assert payload["k0"] == "4/5"
    assert Fraction(payload["k0"]) == Fraction(4, 5)
    assert payload["alpha0"] == "(4/5)^(1/4)"
    assert abs(payload["alpha0_decimal"] - 0.9457416090031758) < 1e-12
    assert "alpha in (0.945742, 1)" in payload["statement"]
    baseline, cusps = payload["obstructions"]
    assert set(baseline) == {"kind", "value", "witness"}
    assert (cusps["first"], cusps["second"], cusps["count"]) == ([0], [0], 1)


def test_a_verdict_rejects_the_other_status_fields():
    baseline = Obstruction("baseline", BASELINE, "x")
    with pytest.raises(ConsistencyError, match="equivalent verdict carries no k0"):
        HolderVerdict(STATUS_EQUIVALENT, matching=(0,), k0=Fraction(1, 2), obstructions=(baseline,))
    with pytest.raises(ConsistencyError, match="equivalent verdict carries no k0"):
        HolderVerdict(STATUS_EQUIVALENT, matching=(0,), k0=BASELINE)
    with pytest.raises(ConsistencyError, match="equivalent verdict carries no k0"):
        HolderVerdict(STATUS_EQUIVALENT, matching=(0,), obstructions=(baseline,))
    with pytest.raises(ConsistencyError, match="distinct verdict carries no branch bijection"):
        HolderVerdict(STATUS_DISTINCT, matching=(1, 0), k0=BASELINE, obstructions=(baseline,))
    with pytest.raises(ConsistencyError, match="distinct verdict carries no branch bijection"):
        HolderVerdict(STATUS_DISTINCT, matching=(), k0=BASELINE, obstructions=(baseline,))
