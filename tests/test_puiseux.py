import itertools
import math
import pathlib
import random
import re
from fractions import Fraction

import pytest

from curvegerm import (
    CurveGerm,
    CyclotomicNumber,
    GermValidationError,
    PuiseuxBranch,
    TruncationExceeded,
    branch,
    conjugate,
    contact,
    contact_report,
    difference_order,
    germ,
    germ_from_dict,
    germ_to_dict,
    intersection_multiplicity,
    load_germ,
    parse_germ,
    zeta,
)
from curvegerm import cyclotomic, puiseux
from curvegerm.cyclotomic import field_degree
from curvegerm.puiseux import ConsistencyError, difference_series


def test_parse_single_cusp():
    g = parse_germ(
        '{"branches": [{"n": 2, "truncation": 5,'
        ' "terms": [{"exp": 5, "coeff": {"rational": "1"}}]}]}'
    )
    b = g.branches[0]
    assert b.n == 2
    assert b.exponents == (5,)
    assert b.terms[0][1] == 1
    assert b.truncation == 5
    assert b.terms[0][1].order == 1  # a rational coefficient lives in Q(zeta_1)


def test_parse_smooth_branch():
    g = parse_germ('{"branches": [{"n": 1, "truncation": 8, "terms": []}]}')
    assert g.branches[0].terms == ()
    assert g.branches[0].n == 1


def test_parse_duplicate_branch_is_rejected():
    doc = {
        "branches": [
            {"n": 2, "truncation": 5, "terms": [{"exp": 5, "coeff": {"rational": "1"}}]},
            {"n": 2, "truncation": 5, "terms": [{"exp": 5, "coeff": {"rational": "1"}}]},
        ]
    }
    with pytest.raises(GermValidationError, match="cannot be told apart"):
        germ_from_dict(doc)


def test_parse_conjugate_collision_is_rejected():
    # The second branch is the k=1 conjugate of the first.
    doc = {
        "branches": [
            {"n": 2, "truncation": 5, "terms": [{"exp": 5, "coeff": {"rational": "1"}}]},
            {"n": 2, "truncation": 5, "terms": [{"exp": 5, "coeff": {"rational": "-1"}}]},
        ]
    }
    with pytest.raises(GermValidationError, match="cannot be told apart"):
        germ_from_dict(doc)


def test_parse_zero_coefficient_is_rejected():
    doc = {
        "branches": [
            {"n": 1, "truncation": 4, "terms": [{"exp": 2, "coeff": {"rational": "0"}}]}
        ]
    }
    with pytest.raises(GermValidationError, match="zero coefficient"):
        germ_from_dict(doc)

    cancelling = {
        "branches": [
            {
                "n": 2,
                "truncation": 4,
                "terms": [{"exp": 3, "coeff": {"cyclotomic": [["1", 0], ["-1", 0]]}}],
            }
        ]
    }
    with pytest.raises(GermValidationError, match="zero coefficient"):
        germ_from_dict(cancelling)


def test_parse_non_increasing_exponents_rejected():
    doc = {
        "branches": [
            {
                "n": 1,
                "truncation": 9,
                "terms": [
                    {"exp": 3, "coeff": {"rational": "1"}},
                    {"exp": 3, "coeff": {"rational": "2"}},
                ],
            }
        ]
    }
    with pytest.raises(GermValidationError, match="strictly increasing"):
        germ_from_dict(doc)


_MISSING = object()


def _one_branch(**fields):
    node = {"n": 1, "truncation": 4, "terms": [{"exp": 2, "coeff": {"rational": "1"}}]}
    node.update(fields)
    return {"branches": [{k: v for k, v in node.items() if v is not _MISSING}]}


_BAD_TRUNCATION = "branch 0: truncation must be a positive integer"
_BAD_EXPONENTS = "branch 0: term exponents must be strictly increasing positive integers"


@pytest.mark.parametrize(
    "doc, message",
    [(_one_branch(truncation=t), _BAD_TRUNCATION) for t in (_MISSING, 0, True, 4.0)]
    + [
        (_one_branch(terms=[{"exp": m, "coeff": {"rational": "1"}}]), _BAD_EXPONENTS)
        for m in (0, -1, "3", 2.0, True)
    ],
)
def test_the_branch_checks_the_numbers_the_parser_passes(doc, message):
    # a missing truncation is rejected, not defaulted to the largest exponent
    with pytest.raises(GermValidationError) as info:
        germ_from_dict(doc)
    assert str(info.value) == message


def test_the_parser_builds_branches_without_the_convenience_constructor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("germ_from_dict called branch()")

    monkeypatch.setattr(puiseux, "branch", refuse)
    paths = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos" / "data").glob("*.json"))
    assert paths
    for path in paths:
        assert load_germ(path).branches


def test_parse_bad_json_is_a_validation_error():
    with pytest.raises(GermValidationError, match="invalid JSON"):
        parse_germ("{not json")


def test_parse_lifts_into_the_session_field():
    doc = {
        "zeta_order": 3,
        "branches": [
            {
                "n": 2,
                "truncation": 3,
                "terms": [{"exp": 3, "coeff": {"cyclotomic": [["1", 1]]}}],
            }
        ],
    }
    g = germ_from_dict(doc)
    # read into Q(zeta_3), the declared field, not into lcm(zeta_order, n) = 6
    assert g.branches[0].terms[0][1] == zeta(3)


def test_tangent_to_y_axis_is_rejected():
    with pytest.raises(GermValidationError, match="multiplicity"):
        branch(2, [(1, 1)], truncation=4)


def test_exponent_above_truncation_is_rejected():
    with pytest.raises(GermValidationError, match="truncation"):
        branch(1, [(5, 1)], truncation=4)


@pytest.mark.parametrize(
    "n,exponent,truncation,message",
    [
        (True, True, 4, "multiplicity"),
        (1, True, 4, "exponents"),
        (2.0, 3, 4, "multiplicity"),
        (2, 3.0, 4, "exponents"),
        (2, 3, 4.0, "truncation"),
        (2, 3, True, "truncation"),
    ],
)
def test_shape_values_must_be_ints(n, exponent, truncation, message):
    with pytest.raises(GermValidationError, match=message):
        branch(n, [(exponent, 1)], truncation=truncation)


def test_field_order_stores_every_coefficient_in_one_field():
    b = branch(2, [(3, 1), (4, zeta(3))], truncation=5, field_order=3)
    assert [c.order for _, c in b.terms] == [3, 3]
    assert b == branch(2, [(3, 1), (4, zeta(3))], truncation=5)


def test_conjugate_identity():
    b = branch(2, [(3, 1), (4, 1)], truncation=8)
    assert conjugate(b, 0) == b
    assert conjugate(b, 2) == b  # k is taken mod n


def test_conjugate_flips_odd_exponents():
    b = branch(2, [(3, 1)], truncation=6)
    assert conjugate(b, 1).terms[0][1] == -1

    b2 = branch(2, [(3, 1), (4, 1)], truncation=6)
    c = conjugate(b2, 1)
    assert c.terms[0][1] == -1
    assert c.terms[1][1] == 1


def test_conjugate_matches_substitution_numerically():
    # y_conj(t) must equal y(zeta_n^k * t) for any sample point.
    b = branch(3, [(4, Fraction(1, 2)), (5, zeta(3))], truncation=8)
    for k in range(3):
        c = conjugate(b, k)
        t = 0.31 + 0.17j
        w = zeta(3, k).to_complex()
        original = sum(coeff.to_complex() * (w * t) ** m for m, coeff in b.terms)
        twisted = sum(coeff.to_complex() * t**m for m, coeff in c.terms)
        assert abs(original - twisted) < 1e-12


def test_conjugations_compose_modulo_n():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        exps = sorted(rng.sample(range(n, 13), rng.randint(1, 3)))
        b = branch(
            n,
            [(m, Fraction(rng.randint(1, 5), rng.randint(1, 3))) for m in exps],
            truncation=16,
            field_order=12,
        )
        j, k = rng.randint(0, n - 1), rng.randint(0, n - 1)
        assert conjugate(conjugate(b, j), k) == conjugate(b, (j + k) % n)


def test_difference_order_simple():
    y0 = branch(1, [], truncation=8)
    assert difference_order(y0, branch(1, [(2, 1)], truncation=8)) == 2


def test_difference_order_conjugate_pair():
    b = branch(2, [(3, 1)], truncation=8)
    assert difference_order(b, conjugate(b, 1)) == Fraction(3, 2)


def test_difference_order_rescales_to_common_parameter():
    b1 = branch(2, [(3, 1), (4, 1)], truncation=8)
    b2 = branch(2, [(3, 1), (5, 1)], truncation=8)
    assert difference_order(b1, b2) == 2


def test_difference_order_mixed_multiplicities():
    b1 = branch(1, [(1, 1)], truncation=8)
    b2 = branch(2, [(3, 1)], truncation=8, field_order=2)
    lifted = branch(1, [(1, 1)], truncation=8, field_order=2)
    assert difference_order(lifted, b2) == 1


def test_difference_order_is_symmetric():
    rng = random.Random(11)
    checked = 0
    for _ in range(30):
        n1, n2 = rng.choice([1, 2, 3, 4]), rng.choice([1, 2, 3, 4])
        mk = lambda n: branch(
            n,
            [
                (m, Fraction(rng.randint(1, 6), rng.randint(1, 3)))
                for m in sorted(rng.sample(range(n, 13), rng.randint(1, 3)))
            ],
            truncation=24,
            field_order=12,
        )
        b1, b2 = mk(n1), mk(n2)
        try:
            forward = difference_order(b1, b2)
        except TruncationExceeded:
            continue
        assert forward == difference_order(b2, b1)
        for k in range(math.lcm(b1.n, b2.n)):
            assert difference_order(conjugate(b1, k), conjugate(b2, k)) == forward
        checked += 1
    assert checked >= 10


def test_identical_series_never_differ():
    b = branch(2, [(3, 1)], truncation=9)
    with pytest.raises(TruncationExceeded) as info:
        difference_order(b, b)
    assert info.value.lower_bound == Fraction(10, 2)


def test_truncation_lower_bound_uses_the_coarser_branch():
    b1 = branch(1, [(2, 1)], truncation=4)
    b2 = branch(1, [(2, 1), (9, 1)], truncation=9)
    with pytest.raises(TruncationExceeded) as info:
        difference_order(b1, b2)
    assert info.value.lower_bound == Fraction(5, 1)


def test_branches_from_different_fields_compare_in_their_pair_field():
    b1 = branch(1, [(2, 1)], truncation=4, field_order=2)
    b2 = branch(1, [(2, 1), (3, 1)], truncation=4, field_order=3)
    assert difference_order(b1, b2) == 3
    assert difference_order(branch(2, [(3, 1)]), branch(3, [(4, zeta(3))])) == Fraction(4, 3)
    g = CurveGerm((b1, b2))
    assert [[c.order for _, c in b.terms] for b in g.branches] == [[2], [3, 3]]
    # the storage field is not part of a branch's value
    lifted = branch(1, [(2, 1), (3, 1)], truncation=4, field_order=6)
    assert lifted == b2 and hash(lifted) == hash(b2) and lifted != b1
    assert germ([b1, lifted]) == g


def _zeta3_branches(multiplicities):
    # Each branch starts with zeta_3 x^2, so every pair compares that
    # coefficient, in Q(zeta_L) with L = lcm(3, n2): at most lcm(3, 13) = 39
    # for these, where the lcm of the branch fields lcm(3, n1, n2) would
    # reach lcm(33, 39) = 429 and the lcm of all five 72072.
    return [branch(n, [(2 * n, zeta(3)), (2 * n + 1, 1)]) for n in multiplicities]


def _record_power_bases(monkeypatch):
    basis, built = cyclotomic._power_basis, []
    basis.cache_clear()
    monkeypatch.setattr(cyclotomic, "_power_basis", lambda n: built.append(n) or basis(n))
    return built


def test_mixed_multiplicities_build_only_pair_fields(monkeypatch):
    built = _record_power_bases(monkeypatch)
    report = contact_report(germ(_zeta3_branches((7, 8, 9, 11, 13))))
    assert report.contact[3][4] == Fraction(27, 13) and report.intersection[3][4] == 11 * 27
    # every pair agrees without a rotation until it parts, so no comparison
    # leaves the coefficients' own field
    assert set(built) == {3}


def test_germ_file_of_mixed_multiplicities_needs_only_the_coefficient_field(monkeypatch):
    built = _record_power_bases(monkeypatch)
    g = germ(_zeta3_branches((7, 8, 9, 11, 13)))
    doc = germ_to_dict(g)
    assert doc["zeta_order"] == 3
    assert doc["branches"][4]["terms"][0] == {"exp": 26, "coeff": {"cyclotomic": [["1", 1]]}}
    again = germ_from_dict(doc)
    assert again == g and germ_to_dict(again) == doc
    assert max(built) <= 39
    rational = germ([branch(2, [(3, 1)]), branch(3, [(4, Fraction(1, 2))])])
    assert germ_to_dict(rational)["zeta_order"] == 1


def test_serialization_round_trips_exactly():
    g = germ(
        [
            branch(2, [(3, Fraction(-7, 2)), (4, 1)], truncation=9),
            branch(3, [(4, zeta(3)), (7, 1 + zeta(3, 2))], truncation=9),
        ]
    )
    again = germ_from_dict(germ_to_dict(g))
    assert again == g


def _dense_coefficient(rng, order):
    while True:
        c = CyclotomicNumber(
            order,
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.8 else 0
             for _ in range(field_degree(order))],
        )
        if not c.is_zero():
            return c


def _kernel_pair(rng):
    """A branch pair with coefficients in Q(zeta_N), N in {12, 120, 210,
    420}, the second's often in Q(zeta_lcm(N, n1, n2)) as a perturbed
    conjugate of the first, so comparisons agree for several exponents or
    run into the truncation."""
    base = rng.choice((12, 120, 210, 420))
    n1 = rng.randint(1, 9)
    scale = rng.choice((1, 1, 2, 3))
    n2 = n1 * scale if n1 * scale <= 9 else rng.randint(1, 9)
    field = math.lcm(base, n1, n2)
    exps = sorted(rng.sample(range(n1, 4 * n1 + 6), rng.randint(1, 4)))
    terms1 = [(m, _dense_coefficient(rng, base)) for m in exps]
    b1 = PuiseuxBranch(n1, tuple(terms1), exps[-1] + rng.randint(0, 3))
    if n2 == n1 * scale and rng.random() < 0.8:
        j = rng.randrange(n2)
        twist = field // n2 * j
        terms2 = {m * scale: c.lift(field) * zeta(field, -twist * m * scale) for m, c in terms1}
        if rng.random() < 0.5:
            m = rng.choice(sorted(terms2))
            terms2[m] = terms2[m] + _dense_coefficient(rng, base).lift(field)
            if terms2[m].is_zero():
                del terms2[m]
        if rng.random() < 0.3:
            terms2[(exps[-1] + 1) * scale] = _dense_coefficient(rng, base).lift(field)
        top = max(terms2, default=n2)
        truncation2 = top + rng.randint(0, 2 * scale)
    else:
        exps2 = sorted(rng.sample(range(n2, 4 * n2 + 6), rng.randint(1, 4)))
        terms2 = {m: _dense_coefficient(rng, base).lift(field) for m in exps2}
        truncation2 = exps2[-1] + rng.randint(0, 3)
    b2 = PuiseuxBranch(n2, tuple(sorted(terms2.items())), truncation2)
    return b1, b2


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TruncationExceeded as exc:
        return ("blocked", str(exc), exc.lower_bound)


def test_difference_order_never_builds_the_conjugate_it_compares_against():
    # Differential: the lazy comparison against conjugate k equals the
    # comparison against the conjugate built term by term.
    rng = random.Random(31337)
    blocked = deep = 0
    for _ in range(150):
        b1, b2 = _kernel_pair(rng)
        sweep = [_outcome(difference_order, b1, b2, k) for k in range(b2.n)]
        for k in range(b2.n):
            assert sweep[k] == _outcome(difference_order, b1, conjugate(b2, k)), (b1, b2, k)
        blocked += sum(isinstance(v, tuple) for v in sweep)
        first = min(b1.exponents[0] / b1.n, b2.exponents[0] / b2.n if b2.terms else 99)
        deep += sum(isinstance(v, Fraction) and v > first for v in sweep)
    assert blocked >= 10 and deep >= 10, (blocked, deep)


# --- oracle: one walk per conjugate ----------------------------------------
#
# The per-conjugate comparison the pair walk replaced: both series
# rescaled to x = s^lcm(n1, n2) for each k, and the sorted exponent union
# walked until the first difference.  Every coefficient is compared in one
# big field, the lcm of n2 and of all coefficient orders of both branches,
# as an independent check of the walk's per-pair fields.


def _pair_field(b1, b2):
    return math.lcm(b2.n, *(c.order for b in (b1, b2) for _, c in b.terms))


def _oracle_aligned(b1, b2, k):
    order = _pair_field(b1, b2)
    n = math.lcm(b1.n, b2.n)
    f1, f2 = n // b1.n, n // b2.n
    step = (k % b2.n) * (order // b2.n)

    def turn(e, c):
        return c.lift(order).rotate(e // f2 * step)

    s1 = {m * f1: c for m, c in b1.terms}
    s2 = {m * f2: c for m, c in b2.terms}
    return n, s1, s2, min(b1.truncation * f1, b2.truncation * f2), order, turn


def _oracle_difference_order(b1, b2, k=0):
    n, s1, s2, limit, order, turn = _oracle_aligned(b1, b2, k)
    for e in sorted(set(s1) | set(s2)):
        if e > limit:
            break
        a, b = s1.get(e), s2.get(e)
        if a is None or b is None or a.lift(order) != turn(e, b):
            return Fraction(e, n)
    raise TruncationExceeded(
        f"series agree at every known exponent up to x^({limit}/{n})",
        lower_bound=Fraction(limit + 1, n),
    )


def _assert_walk_matches_the_oracle(b1, b2):
    expected = [_outcome(_oracle_difference_order, b1, b2, k) for k in range(b2.n)]
    assert [_outcome(difference_order, b1, b2, k) for k in range(b2.n)] == expected, (b1, b2)
    for k in (-1, b2.n + 1):
        assert _outcome(difference_order, b1, b2, k) == expected[k % b2.n], (b1, b2, k)
    # contact and intersection number as they were read off the oracle sweep
    blocked = [k for k, v in enumerate(expected) if isinstance(v, tuple)]
    values = [v for v in expected if not isinstance(v, tuple)]
    if blocked:
        message = (
            f"contact inconclusive: conjugation(s) {', '.join(map(str, blocked))} agree "
            "within the known terms"
        )
        bound = max([expected[k][2] for k in blocked] + values)
        assert _outcome(contact, b1, b2) == ("blocked", message, bound), (b1, b2)
        # Noether's formula is read at the contact, so it is blocked as contact is
        assert _outcome(intersection_multiplicity, b1, b2) == ("blocked", message, bound), (b1, b2)
    else:
        assert contact(b1, b2) == max(values), (b1, b2)
        total = b1.n * sum(values)
        if total.denominator == 1 and total > 0:
            assert intersection_multiplicity(b1, b2) == total, (b1, b2)
        else:
            with pytest.raises(ConsistencyError, match="not a positive integer"):
                intersection_multiplicity(b1, b2)
    return expected


def test_pair_walk_matches_the_per_conjugate_oracle(generated_germs, monkeypatch):
    # every order is decided on the pair's walk, without a difference series
    monkeypatch.setattr(
        puiseux, "_differences", lambda *args: pytest.fail("formed a difference series")
    )
    rng = random.Random(31337)
    outcomes = []
    for _ in range(150):
        outcomes += _assert_walk_matches_the_oracle(*_kernel_pair(rng))
    for _, g, _ in generated_germs:
        for b1, b2 in itertools.product(g.branches, repeat=2):
            outcomes += _assert_walk_matches_the_oracle(b1, b2)
    blocked = sum(isinstance(v, tuple) for v in outcomes)
    assert blocked >= 100 and len(outcomes) - blocked >= 1000, (blocked, len(outcomes))


def test_difference_order_stops_at_the_first_difference(monkeypatch):
    # two 2,000-term series that part at x^1: one lift, not one per exponent
    terms = [(m, 1) for m in range(1, 2001)]
    b1 = branch(1, terms, truncation=2001)
    b2 = branch(1, [(1, 2)] + terms[1:], truncation=2001)
    lifted, calls = puiseux._lifted, []
    monkeypatch.setattr(puiseux, "_lifted", lambda *args: calls.append(args) or lifted(*args))
    assert difference_order(b1, b2) == 1
    assert len(calls) == 1


def test_cyclotomic_coefficient_sums_repeated_negative_and_large_powers():
    entries = [["1/2", 1], ["1/3", 1], ["-2", -1], ["5", 7], ["0", 2], ["3/4", 0], ["-1/6", 12]]
    doc = {
        "zeta_order": 6,
        "branches": [{"n": 1, "truncation": 2,
                      "terms": [{"exp": 2, "coeff": {"cyclotomic": entries}}]}],
    }
    (b,) = germ_from_dict(doc).branches
    expected = CyclotomicNumber.zero(6)
    for q, k in entries:
        expected = expected + Fraction(q) * zeta(6, k)
    assert b.terms[0][1] == expected
    assert expected == Fraction(7, 12) + Fraction(5, 6) * zeta(6) - 2 * zeta(6, 5) + 5 * zeta(6)
    cancelling = {"cyclotomic": [["1", 1], ["-1", 7]]}
    doc["branches"][0]["terms"][0]["coeff"] = cancelling
    with pytest.raises(GermValidationError, match="zero coefficient listed at exponent 2"):
        germ_from_dict(doc)


def test_difference_series_drops_exactly_cancelled_terms():
    b1 = branch(1, [(2, 1), (5, 1)], truncation=9)
    b2 = branch(1, [(2, 1), (5, 3), (9, 1)], truncation=9)
    assert difference_series(b1, b2) == (1, ((5, CyclotomicNumber.from_rational(1, -2)),
                                              (9, CyclotomicNumber.from_rational(1, -1))))
    assert difference_series(b1, b1) == (1, ())
    cusp = branch(2, [(3, 1)], truncation=5)
    assert difference_series(cusp, conjugate(cusp, 1), 1) == (2, ())


def test_difference_series_keeps_terms_past_the_shorter_truncation():
    cusp = branch(4, [(6, 1)], truncation=6)
    genus_two = branch(4, [(6, 1), (7, 1)], truncation=7)
    with pytest.raises(TruncationExceeded):
        difference_order(cusp, genus_two)
    assert difference_series(cusp, genus_two) == (4, ((7, CyclotomicNumber.from_rational(4, -1)),))


def test_difference_series_is_the_term_by_term_difference_with_the_conjugate():
    rng = random.Random(2718)
    for _ in range(30):
        b1, b2 = _kernel_pair(rng)
        n, big = math.lcm(b1.n, b2.n), _pair_field(b1, b2)
        for k in range(b2.n):
            expected = {m * (n // b1.n): c.lift(big) for m, c in b1.terms}
            for m, c in conjugate(b2, k).terms:
                e = m * (n // b2.n)
                expected[e] = expected.get(e, CyclotomicNumber.zero(big)) - c.lift(big)
            expected = [(e, c) for e, c in sorted(expected.items()) if not c.is_zero()]
            got_n, got = difference_series(b1, b2, k)
            assert got_n == n and [(e, d.lift(big)) for e, d in got] == expected
            order = _outcome(difference_order, b1, b2, k)
            if isinstance(order, Fraction):
                assert order == Fraction(expected[0][0], n)


def test_pair_walk_rotates_nothing_once_residue_zero_agrees(monkeypatch):
    # every conjugate k of the second branch meets zeta_5 * t^9 with its own
    # residue 9k mod 8; residue 0 needs no rotation and agrees, and no other
    # can agree with it, so the walk tries none of the other seven
    rotate, calls = CyclotomicNumber.rotate, []
    monkeypatch.setattr(
        CyclotomicNumber, "rotate", lambda self, power: calls.append(power) or rotate(self, power)
    )
    b1 = branch(8, [(9, zeta(5)), (10, 1)], truncation=12)
    b2 = branch(8, [(9, zeta(5)), (10, 2)], truncation=12)
    calls.clear()
    g = germ([b1, b2])
    assert calls == []
    assert g._contacts == (8, ((None, 10), (10, None)))


def test_pair_walk_orders_are_the_first_exponents_of_the_difference_series(generated_germs):
    # difference_series walks every known term and drops none that differs,
    # so its first exponent is where conjugate k parts from b1, when both
    # know it: the contact is the largest of these, and a conjugate whose
    # difference has no term within both truncations blocks it
    checked = 0
    for _, g, _ in generated_germs:
        for b1, b2 in itertools.product(g.branches, repeat=2):
            n = math.lcm(b1.n, b2.n)
            limit = min(b1.truncation * n // b1.n, b2.truncation * n // b2.n)
            orders, blocked = [], []
            for k in range(b2.n):
                _, terms = difference_series(b1, b2, k)
                if terms and terms[0][0] <= limit:
                    orders.append(terms[0][0])
                    checked += 1
                else:
                    blocked.append(k)
            if blocked:
                message = (
                    f"contact inconclusive: conjugation(s) {', '.join(map(str, blocked))} "
                    "agree within the known terms"
                )
                expected = ("blocked", message, Fraction(limit + 1, n))
                assert _outcome(contact, b1, b2) == expected, (b1, b2)
            else:
                assert contact(b1, b2) == Fraction(max(orders), n), (b1, b2)
    assert checked >= 1000, checked


def _conjugate_heavy_germ(rng):
    """Two to seven branches, most of them conjugates of one or two shared
    series in Q(zeta_N), N from 3 to 6, some on a multiple of the series'
    multiplicity (at most 6), most cut short, perturbed in one term or
    given an extra term, each with a short truncation, and some repeated,
    so that pairs agree under nontrivial conjugations for several terms or
    run into a truncation."""
    order = rng.randint(3, 6)
    stems = []
    for _ in range(rng.randint(1, 2)):
        n = rng.randint(1, 6)
        exps = sorted(rng.sample(range(n, 3 * n + 4), rng.randint(2, 5)))
        stems.append(branch(n, [(m, _dense_coefficient(rng, order)) for m in exps]))
    branches = []
    for _ in range(rng.randint(2, 7)):
        if branches and rng.random() < 0.05:
            branches.append(rng.choice(branches))
            continue
        stem = conjugate(rng.choice(stems), rng.randrange(6))
        scale = rng.choice([1, 1, 2, 3]) if stem.n <= 3 else 1
        n = stem.n * scale if stem.n * scale <= 6 else stem.n
        terms = {m * (n // stem.n): c for m, c in stem.terms}
        for _ in range(rng.randint(0, len(terms) - 1) if rng.random() < 0.3 else 0):
            del terms[max(terms)]
        if rng.random() < 0.5:
            m = rng.choice(sorted(terms))
            terms[m] = terms[m] + _dense_coefficient(rng, order).lift(terms[m].order)
            if terms[m].is_zero():
                del terms[m]
        if rng.random() < 0.5:
            terms[max(terms, default=n) + rng.randint(1, n)] = _dense_coefficient(rng, order)
        top = max(terms, default=n)
        branches.append(PuiseuxBranch(n, tuple(sorted(terms.items())), top + rng.randint(0, n)))
    return branches


def test_germ_walk_matches_the_per_conjugate_oracle():
    # the germ's one walk against the oracle on every pair: the same
    # contacts, a rejection that names a pair the oracle cannot tell apart
    # with its smallest agreeing conjugation, and a tree whose deepest
    # common node of two leaves is at their contact
    rng = random.Random(2407)
    built = rejected = deep = 0
    for _ in range(400):
        branches = _conjugate_heavy_germ(rng)
        r = len(branches)
        contacts, blocked = {}, {}
        for i, j in itertools.combinations(range(r), 2):
            orders = [_outcome(_oracle_difference_order, branches[i], branches[j], k)
                      for k in range(branches[j].n)]
            left = [k for k, v in enumerate(orders) if isinstance(v, tuple)]
            if left:
                blocked[i, j] = left[0]
            contacts[i, j] = None if left else max(orders)
        if blocked:
            with pytest.raises(GermValidationError) as raised:
                germ(branches)
            named = re.fullmatch(
                r"branches (\d+) and (\d+) cannot be told apart \(conjugation (\d+) agrees "
                r"within the known terms\): duplicate branch or insufficient truncation",
                str(raised.value),
            )
            assert named, str(raised.value)
            i, j, k = map(int, named.groups())
            # the walk names the first such pair it meets; with only one,
            # that is the first in index order
            assert blocked.get((i, j)) == k, (str(raised.value), blocked, branches)
            rejected += 1
            continue
        g = germ(branches)
        den, rows = g._contacts
        levels, parents, leaves = g._tree
        paths = []
        for node in leaves:
            path = []
            while node >= 0:
                path.append(node)
                node = parents[node]
            paths.append(path[::-1])
        for (i, j), value in contacts.items():
            assert Fraction(rows[i][j], den) == value and rows[j][i] == rows[i][j], branches
            common = [a for a, b in zip(paths[i], paths[j]) if a == b]
            assert levels[common[-1]] == rows[i][j], branches
        assert all(rows[i][i] is None for i in range(r))
        built += 1
        deep += max(len(path) for path in paths) > 3
    assert built >= 100 and rejected >= 100 and deep >= 20, (built, rejected, deep)


def test_chain_germ_compares_each_pair_of_branches_once(monkeypatch):
    # the smooth chain of r = 200 branches, branch k being y = x^2 + ... +
    # x^(k+1) with truncation k + 3: each pair shares the prefix of the
    # shorter branch, which one walk per pair read again for every partner,
    # 1,333,300 coefficient comparisons; the germ's one walk compares each
    # member of a class with its representative once per shared term, and
    # every class parts at its first new term
    r = 200
    branches = [branch(1, [(m, 1) for m in range(2, k + 2)], truncation=k + 3)
                for k in range(1, r + 1)]
    lifted, calls = puiseux._lifted, []
    monkeypatch.setattr(puiseux, "_lifted", lambda *args: calls.append(args) or lifted(*args))
    g = germ(branches)
    assert len(calls) == r * (r - 1) // 2 < 100_000
    assert g._contacts[1][0][r - 1] == 3 and g._contacts[1][r - 2][r - 1] == r + 1


def test_repeated_branch_is_named_without_walking_every_pair(monkeypatch):
    # the same chain with its last branch listed twice: the germ's walk
    # names the pair it cannot part, where walking every pair again to
    # name it made 1,373,500 coefficient comparisons
    r = 200
    branches = [branch(1, [(m, 1) for m in range(2, k + 2)], truncation=k + 3)
                for k in range(1, r + 1)]
    lifted, calls = puiseux._lifted, []
    monkeypatch.setattr(puiseux, "_lifted", lambda *args: calls.append(args) or lifted(*args))
    with pytest.raises(GermValidationError) as raised:
        germ(branches + branches[-1:])
    assert str(raised.value) == (
        f"branches {r - 1} and {r} cannot be told apart (conjugation 0 agrees within the "
        "known terms): duplicate branch or insufficient truncation"
    )
    assert len(calls) <= 25_000


@pytest.mark.parametrize("literal", ["1", 1], ids=["string", "int"])
def test_parsing_makes_at_most_one_fraction_per_coefficient(literal, monkeypatch):
    # the chain of r = 300 branches as a document: 45,150 coefficients,
    # each read once into a Fraction when written as a string and never
    # when written as a JSON int
    r = 300
    doc = {"branches": [
        {"n": 1, "truncation": k + 3,
         "terms": [{"exp": m, "coeff": {"rational": literal}} for m in range(2, k + 2)]}
        for k in range(1, r + 1)
    ]}
    new, calls = Fraction.__new__, []
    monkeypatch.setattr(Fraction, "__new__", lambda *args, **kw: calls.append(1) or new(*args, **kw))
    g = germ_from_dict(doc)
    coefficients = r * (r + 1) // 2
    assert sum(len(b.terms) for b in g.branches) == coefficients
    assert len(calls) <= (coefficients if literal == "1" else 0)
