import itertools
import random
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
    lipschitz_normal_form,
    pair_obstruction,
)
from curvegerm.puiseux import ConsistencyError


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


def test_contact_tree_rejects_a_non_ultrametric_matrix():
    from curvegerm.holder import _contact_tree

    two, one = Fraction(2), Fraction(1)
    contact = ((None, two, one), (two, None, two), (one, two, None))
    with pytest.raises(RuntimeError, match="ultrametric"):
        _contact_tree(contact, [(1,)] * 3, {})


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
