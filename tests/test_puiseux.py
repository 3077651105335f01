import math
import random
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
    difference_order,
    germ,
    germ_from_dict,
    germ_to_dict,
    parse_germ,
    zeta,
)
from curvegerm.cyclotomic import field_degree
from curvegerm.puiseux import difference_orders


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
    assert b.field_order == 2


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
    assert g.field_order == 6  # lcm(zeta_order=3, n=2)
    assert g.branches[0].terms[0][1] == zeta(3).lift(6)


def test_tangent_to_y_axis_is_rejected():
    with pytest.raises(GermValidationError, match="multiplicity"):
        branch(2, [(1, 1)], truncation=4)


def test_exponent_above_truncation_is_rejected():
    with pytest.raises(GermValidationError, match="truncation"):
        branch(1, [(5, 1)], truncation=4)


def test_field_order_must_be_multiple_of_n():
    with pytest.raises(GermValidationError, match="multiple"):
        PuiseuxBranch(2, (), 5, 3)


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


def test_difference_order_requires_common_field():
    b1 = branch(1, [(2, 1)], truncation=4, field_order=2)
    b2 = branch(1, [(2, 1), (3, 1)], truncation=4, field_order=3)
    with pytest.raises(ValueError, match="different fields"):
        difference_order(b1, b2)


def test_germ_lifts_branches_to_common_field():
    g = germ([branch(2, [(3, 1)], truncation=6), branch(3, [(4, 1)], truncation=6)])
    assert g.field_order == 6
    assert all(b.field_order == 6 for b in g.branches)


def test_germ_requires_consistent_orders():
    b1 = branch(1, [(2, 1)], truncation=4, field_order=2)
    b2 = branch(1, [(3, 1)], truncation=4, field_order=3)
    with pytest.raises(GermValidationError, match="field order"):
        CurveGerm((b1, b2))


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
    """A branch pair in Q(zeta_N), N in {12, 120, 210, 420} times the
    multiplicities, whose second branch is often a perturbed conjugate of
    the first, so comparisons agree for several exponents or run into
    the truncation."""
    base = rng.choice((12, 120, 210, 420))
    n1 = rng.randint(1, 9)
    scale = rng.choice((1, 1, 2, 3))
    n2 = n1 * scale if n1 * scale <= 9 else rng.randint(1, 9)
    field = math.lcm(base, n1, n2)
    exps = sorted(rng.sample(range(n1, 4 * n1 + 6), rng.randint(1, 4)))
    terms1 = [(m, _dense_coefficient(rng, base).lift(field)) for m in exps]
    b1 = PuiseuxBranch(n1, tuple(terms1), exps[-1] + rng.randint(0, 3), field)
    if n2 == n1 * scale and rng.random() < 0.8:
        j = rng.randrange(n2)
        twist = field // n2 * j
        terms2 = {m * scale: c * zeta(field, -twist * m * scale) for m, c in terms1}
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
    b2 = PuiseuxBranch(n2, tuple(sorted(terms2.items())), truncation2, field)
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
        assert [
            v if isinstance(v, Fraction) else ("blocked", str(v), v.lower_bound)
            for v in difference_orders(b1, b2)
        ] == sweep
        blocked += sum(isinstance(v, tuple) for v in sweep)
        first = min(b1.exponents[0] / b1.n, b2.exponents[0] / b2.n if b2.terms else 99)
        deep += sum(isinstance(v, Fraction) and v > first for v in sweep)
    assert blocked >= 10 and deep >= 10, (blocked, deep)
