"""Properties the mathematics guarantees, checked on seeded random germs.

The germs come from ``random_germ`` in conftest.py: mixed multiplicities,
cyclotomic coefficients, and truncations that decide every comparison.
"""

import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from curvegerm import (
    BASELINE,
    STATUS_DISTINCT,
    STATUS_EQUIVALENT,
    CyclotomicNumber,
    GermValidationError,
    PuiseuxBranch,
    characteristic_data,
    classify,
    conjugate,
    contact,
    contact_report,
    germ,
    germ_from_dict,
    germ_to_dict,
    holder_key,
    intersection_multiplicity,
    lipschitz_normal_form,
    load_germ,
    zeta,
)

DEMO_DATA = pathlib.Path(__file__).resolve().parents[1] / "demos" / "data"


def _entries(verdict):
    return sorted((o.kind, o.value, o.count) for o in verdict.obstructions)


def _assert_matching_carries_the_invariants(verdict, g1, g2):
    sigma = verdict.matching
    assert sorted(sigma) == list(range(len(g1.branches)))
    betas1 = [characteristic_data(b).beta for b in g1.branches]
    betas2 = [characteristic_data(b).beta for b in g2.branches]
    c1, c2 = contact_report(g1).contact, contact_report(g2).contact
    for i, u in enumerate(sigma):
        assert betas1[i] == betas2[u]
        for j, v in enumerate(sigma):
            assert c1[i][j] == c2[u][v]


def test_contact_is_the_constructed_ultrametric(generated_germs):
    for _, g, expected in generated_germs:
        c = contact_report(g).contact
        assert [list(row) for row in c] == expected
        for i, j, k in itertools.permutations(range(len(g.branches)), 3):
            assert c[i][k] >= min(c[i][j], c[j][k])


def test_classify_is_symmetric_with_k0_in_the_baseline_window(generated_germs):
    germs = [g for _, g, _ in generated_germs]
    statuses = set()
    for g1, g2 in itertools.combinations(germs, 2):
        forward, backward = classify(g1, g2), classify(g2, g1)
        assert forward.status == backward.status
        assert forward.k0 == backward.k0
        statuses.add(forward.status)
        if forward.status == STATUS_DISTINCT:
            assert BASELINE <= forward.k0 < 1
            assert {(o.kind, o.value, o.count, o.first, o.second)
                    for o in forward.obstructions} == {
                (o.kind, o.value, o.count, o.second, o.first) for o in backward.obstructions}
        else:
            _assert_matching_carries_the_invariants(forward, g1, g2)
            _assert_matching_carries_the_invariants(backward, g2, g1)
    assert statuses == {STATUS_DISTINCT, STATUS_EQUIVALENT}


def test_germs_of_one_shape_have_equivalent_invariants(generated_germs):
    by_shape = {}
    for seed, g, _ in generated_germs:
        by_shape.setdefault(seed, []).append(g)
    twins = [gs for gs in by_shape.values() if len(gs) == 2]
    assert len(twins) == 20
    for g1, g2 in twins:
        assert g1 != g2
        verdict = classify(g1, g2)
        assert verdict.status == STATUS_EQUIVALENT
        _assert_matching_carries_the_invariants(verdict, g1, g2)


def test_verdicts_do_not_change_under_reordering_or_conjugation(generated_germs):
    rng = random.Random(11)
    germs = [g for _, g, _ in generated_germs]
    for g1, g2 in zip(germs, germs[1:] + germs[:1]):
        verdict = classify(g1, g2)
        order = rng.sample(range(len(g1.branches)), len(g1.branches))
        shuffled = germ([g1.branches[i] for i in order])
        moved = classify(shuffled, g2)
        assert (moved.status, moved.k0) == (verdict.status, verdict.k0)
        assert _entries(moved) == _entries(verdict)
        if moved.status == STATUS_EQUIVALENT:
            _assert_matching_carries_the_invariants(moved, shuffled, g2)
        # a conjugate parametrizes the same branch: nothing may change
        turned = germ([conjugate(b, rng.randrange(b.n)) for b in g1.branches])
        assert classify(turned, g2) == verdict
        assert classify(g2, turned) == classify(g2, g1)
        # the normal form moves contacts, so it keeps verdicts of one branch only
        if len(g1.branches) == 1:
            normal = germ([lipschitz_normal_form(g1.branches[0])])
            assert classify(normal, g2) == verdict


def noether(beta, contact, n_other):
    """Oracle: Max Noether's formula for the intersection number of two
    branches, which enumerates no conjugates (Casas-Alvero, Singularities
    of Plane Curves, 2000).

    With gamma of characteristic exponents beta (beta_0 = n), e_i the gcd
    chain, delta of multiplicity n_other and contact c:
    I = (n_other / n) * (sum_{i<=q} (e_{i-1} - e_i) * beta_i + e_q * n * c),
    q the number of beta_i / n <= c.
    """
    n = beta[0]
    e = [n]
    for b in beta[1:]:
        e.append(math.gcd(e[-1], b))
    total, q = Fraction(0), 0
    for i in range(1, len(beta)):
        if Fraction(beta[i], n) <= contact:
            total += (e[i - 1] - e[i]) * beta[i]
            q = i
    total += e[q] * n * contact
    value = Fraction(n_other, n) * total
    assert value.denominator == 1
    return int(value)


def test_intersection_numbers_follow_noethers_formula(generated_germs):
    pairs = 0
    for _, g, expected in generated_germs:
        inter = contact_report(g).intersection
        betas = [characteristic_data(b).beta for b in g.branches]
        for i, j in itertools.permutations(range(len(g.branches)), 2):
            assert inter[i][j] == noether(betas[i], expected[i][j], g.branches[j].n)
            pairs += 1
    assert pairs >= 300, pairs


def test_germ_files_round_trip(generated_germs):
    for _, g, _ in generated_germs:
        doc = germ_to_dict(g)
        assert germ_from_dict(doc) == g
        assert germ_from_dict(json.loads(json.dumps(doc))) == g
        assert germ_to_dict(germ_from_dict(doc)) == doc


def _branch_field(b):
    """Oracle: the one field that holds all of a branch's coefficients and
    its conjugating roots of unity, lcm(n, coefficient orders)."""
    return math.lcm(b.n, *(c.order for _, c in b.terms))


def lift_branch(b, order):
    """Oracle: the branch with every coefficient moved into Q(zeta_order),
    as germs once lifted every branch into the lcm of all their fields."""
    return PuiseuxBranch(b.n, tuple((m, c.lift(order)) for m, c in b.terms), b.truncation)


def _in_one_field(g):
    order = math.lcm(*(_branch_field(b) for b in g.branches))
    return germ([lift_branch(b, order) for b in g.branches])


def test_pair_fields_agree_with_one_germ_wide_field(generated_germs):
    by_shape = {}
    mixed = 0
    for seed, g, _ in generated_germs:
        one = _in_one_field(g)
        assert one == g and hash(one) == hash(g)
        assert contact_report(one) == contact_report(g)
        assert [characteristic_data(b) for b in one.branches] == [
            characteristic_data(b) for b in g.branches
        ]
        for b1, b2 in itertools.permutations(g.branches, 2):
            if _branch_field(b1) == _branch_field(b2):
                continue
            order = math.lcm(_branch_field(b1), _branch_field(b2))
            l1, l2 = lift_branch(b1, order), lift_branch(b2, order)
            assert contact(b1, b2) == contact(l1, l2)
            assert intersection_multiplicity(b1, b2) == intersection_multiplicity(l1, l2)
            mixed += 1
        by_shape.setdefault(seed, []).append((g, one))
    twins = [pair for pair in by_shape.values() if len(pair) == 2]
    assert len(twins) == 20 and mixed >= 400, mixed
    # twins share a shape (equivalent verdicts); neighbouring shapes mostly do not
    neighbours = [[by_shape[seed][0], by_shape[seed + 1][0]] for seed in range(59)]
    statuses = set()
    for (g1, one1), (g2, one2) in twins + neighbours:
        verdict = classify(g1, g2)
        assert verdict == classify(one1, one2)
        assert verdict.to_dict() == classify(one1, one2).to_dict()
        statuses.add(verdict.status)
    assert statuses == {STATUS_DISTINCT, STATUS_EQUIVALENT}


def _generated_and_demo_germs(generated_germs):
    demos = [load_germ(path) for path in sorted(DEMO_DATA.glob("*.json"))]
    return [g for _, g, _ in generated_germs] + demos


def test_key_equality_is_the_classify_status(generated_germs):
    germs = _generated_and_demo_germs(generated_germs)
    keys = [holder_key(g) for g in germs]
    equivalent = 0
    for (g1, k1), (g2, k2) in itertools.product(zip(germs, keys), repeat=2):
        status = classify(g1, g2).status
        assert (k1 == k2) == (status == STATUS_EQUIVALENT)
        equivalent += status == STATUS_EQUIVALENT
    assert len(germs) ** 2 == 7744 and equivalent > len(germs)
    # keys hash, so one dict partitions the germs into their classes
    classes = {}
    for g, key in zip(germs, keys):
        classes.setdefault(key, []).append(g)
    assert sum(len(members) ** 2 for members in classes.values()) == equivalent


def test_key_does_not_change_under_reordering_or_conjugation(generated_germs):
    rng = random.Random(12)
    for g in _generated_and_demo_germs(generated_germs):
        key = holder_key(g)
        order = rng.sample(range(len(g.branches)), len(g.branches))
        assert holder_key(germ([g.branches[i] for i in order])) == key
        # a conjugate parametrizes the same branch, whichever branch is turned
        for i, b in enumerate(g.branches):
            for k in range(1, b.n):
                turned = g.branches[:i] + (conjugate(b, k),) + g.branches[i + 1:]
                assert holder_key(germ(turned)) == key


def test_key_does_not_change_under_the_normal_form(generated_germs):
    # The normal form is a bi-Lipschitz map of one branch, and it moves
    # the contacts between branches: siblings that part beyond beta_g
    # even coincide.  So each branch keeps its key as a germ of its own,
    # and a germ keeps its key wherever its normal forms keep its contacts.
    kept = 0
    for g in _generated_and_demo_germs(generated_germs):
        for b in g.branches:
            beta = characteristic_data(b).beta
            assert holder_key(germ([lipschitz_normal_form(b)])) == holder_key(germ([b])) == (beta,)
        try:
            normal = germ([lipschitz_normal_form(b) for b in g.branches])
        except GermValidationError:
            continue
        if contact_report(normal) == contact_report(g):
            assert holder_key(normal) == holder_key(g)
            kept += 1
    assert kept >= 10, kept


# --- changes of coordinates -------------------------------------------------
#
# Characteristic exponents, contacts and intersection numbers are analytic
# invariants (Casas-Alvero, Singularities of Plane Curves, 2000), so every
# answer of the library must survive (x, y) -> (mu^N * x, u*y + phi(x)).


def _common(a, b):
    """Cyclotomic numbers a and b lifted into one field."""
    order = math.lcm(a.order, b.order)
    return a.lift(order), b.lift(order)


def transform(g, mu, u, phi):
    """The image of g under (x, y) -> (mu^N * x, u*y + phi(x)).

    N is the lcm of the multiplicities, mu a nonzero rational, u a nonzero
    cyclotomic number and phi ((k, c_k), ...) with k >= 1.  On x = s^n,
    s = mu^(N/n) * t, a term a_m t^m becomes u * a_m * mu^(-mN/n) s^m, and
    c_k x^k adds c_k * mu^(-kN) s^(nk) where nk is within the truncation.
    """
    big = math.lcm(*[b.n for b in g.branches])
    branches = []
    for b in g.branches:
        scale = Fraction(mu) ** -(big // b.n)
        terms = {m: math.prod(_common(u, c)) * scale**m for m, c in b.terms}
        for k, c in phi:
            if b.n * k <= b.truncation:
                known = terms.get(b.n * k, CyclotomicNumber.zero(1))
                terms[b.n * k] = sum(_common(known, c * scale ** (b.n * k)))
        kept = [(m, c) for m, c in sorted(terms.items()) if not c.is_zero()]
        branches.append(PuiseuxBranch(b.n, tuple(kept), b.truncation))
    return germ(branches)


def _unit(rng):
    """A nonzero rational, or one plus a primitive 3rd or 4th root of unity."""
    q = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
    if rng.random() < 0.5:
        return CyclotomicNumber.from_rational(1, q)
    return zeta(rng.choice([3, 4])) + q


def _random_maps(seed):
    """Three seeded (mu, u, phi) for :func:`transform`."""
    rng = random.Random(seed)
    maps = []
    for _ in range(3):
        mu = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        phi = tuple((k, _unit(rng)) for k in sorted(rng.sample(range(1, 5), rng.randint(0, 3))))
        maps.append((mu, _unit(rng), phi))
    return maps


def _assert_same_answers(g, image):
    assert [characteristic_data(b) for b in image.branches] == [
        characteristic_data(b) for b in g.branches
    ]
    assert contact_report(image) == contact_report(g)
    assert holder_key(image) == holder_key(g)
    verdict = classify(g, image)
    assert verdict.status == STATUS_EQUIVALENT
    assert verdict.matching == tuple(range(len(g.branches)))


def test_answers_do_not_change_under_a_change_of_coordinates(generated_germs):
    germs = _generated_and_demo_germs(generated_germs)
    moved = 0
    for seed, g in enumerate(germs):
        for mu, u, phi in _random_maps(seed):
            image = transform(g, mu, u, phi)
            _assert_same_answers(g, image)
            moved += image != g
    assert len(germs) == 88 and moved >= 250, moved


def test_demo_verdicts_do_not_change_under_a_change_of_coordinates():
    germs = [load_germ(path) for path in sorted(DEMO_DATA.glob("*.json"))]
    maps = [_random_maps(100 + seed) for seed in range(len(germs))]
    statuses = set()
    for (g1, maps1), (g2, maps2) in itertools.product(zip(germs, maps), repeat=2):
        expected = classify(g1, g2).to_dict()
        for m1, m2 in zip(maps1, maps2[1:] + maps2[:1]):
            assert classify(transform(g1, *m1), transform(g2, *m2)).to_dict() == expected
        statuses.add(expected["status"])
    assert len(germs) ** 2 == 64 and statuses == {STATUS_DISTINCT, STATUS_EQUIVALENT}


def test_a_map_that_moves_a_characteristic_exponent_fails_the_properties():
    # adding t^3 to y = t^5 on x = t^2 is no change of coordinates: beta_1
    # moves from 5 to 3, and the properties above must see it
    g = load_germ(DEMO_DATA / "cusp_2_5.json")
    (b,) = transform(g, *_random_maps(0)[0]).branches
    terms = sorted({**dict(b.terms), 3: CyclotomicNumber.one(1)}.items())
    wrong = germ([PuiseuxBranch(b.n, tuple(terms), b.truncation)])
    with pytest.raises(AssertionError):
        _assert_same_answers(g, wrong)
    assert characteristic_data(wrong.branches[0]).beta == (2, 3)
    assert classify(g, wrong).status == STATUS_DISTINCT
