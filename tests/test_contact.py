import importlib
import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest

from curvegerm import (
    CharacteristicData,
    ContactReport,
    CyclotomicNumber,
    GermValidationError,
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
    zeta,
)
from curvegerm.contact import _noether
from curvegerm.invariants import _steps, characteristic_data
from curvegerm.puiseux import ConsistencyError, _meetings

# the package exports a function named contact, which hides the submodule
contact_module = importlib.import_module("curvegerm.contact")

DEMO_DATA = pathlib.Path(__file__).resolve().parents[1] / "demos" / "data"

# --- exact series substitution oracle --------------------------------------
#
# ord_t f(x(t), y(t)) computed by expanding the polynomial f directly over
# the parametrization, with dictionary power series in exact cyclotomic
# arithmetic.  For exact (polynomial) parametrizations the result is exact
# and completely independent of the conjugate-sum implementation.


def _series_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            prior = out.get(e1 + e2)
            out[e1 + e2] = c1 * c2 if prior is None else prior + c1 * c2
    return out


def substitution_order(monomials, b):
    """monomials: {(i, j): rational} for f = sum c * x^i * y^j."""
    order = math.lcm(*(c.order for _, c in b.terms))
    y = {m: c.lift(order) for m, c in b.terms}
    total = {}
    for (i, j), c in sorted(monomials.items()):
        term = {i * b.n: CyclotomicNumber.from_rational(order, c)}
        for _ in range(j):
            term = _series_mul(term, y)
        for e, coeff in term.items():
            prior = total.get(e)
            total[e] = coeff if prior is None else prior + coeff
    alive = [e for e, coeff in total.items() if not coeff.is_zero()]
    return min(alive)


def sqrt_series(k):
    """Binomial coefficient of u^k in (1 + u)^(1/2)."""
    c = Fraction(1)
    for i in range(k):
        c *= Fraction(1, 2) - i
        c /= i + 1
    return c


def test_coincidence_smooth_parabola():
    axis = branch(1, [], truncation=32)
    assert contact(axis, branch(1, [(2, 1)], truncation=32)) == 2


def test_coincidence_maximizes_over_conjugates():
    b1 = branch(2, [(3, 1)], truncation=12)
    b2 = branch(2, [(3, -1), (4, 1)], truncation=12)
    # the k=1 conjugate of b2 matches the x^(3/2) term of b1, leaving the
    # first difference at x^2
    assert contact(b1, b2) == 2


def test_coincidence_transverse_smooth_and_cusp():
    b1 = branch(2, [(3, 1)], truncation=12, field_order=2)
    b2 = branch(1, [(1, 1)], truncation=12, field_order=2)
    assert contact(b1, b2) == 1


def test_contact_is_the_coincidence_exponent():
    b1 = branch(2, [(3, 1)], truncation=12)
    b2 = branch(2, [(3, -1), (4, 1)], truncation=12)
    orders = [difference_order(b1, b2, k) for k in range(b2.n)]
    assert orders == [Fraction(3, 2), 2]
    assert contact(b1, b2) == max(orders) == 2


def test_coincidence_propagates_truncation():
    b1 = branch(2, [(3, 1)], truncation=3)
    b2 = branch(2, [(3, 1), (4, 1)], truncation=12)
    with pytest.raises(TruncationExceeded, match="conjugation"):
        contact(b1, b2)


def test_intersection_multiplicity_examples():
    axis2 = branch(1, [], truncation=32, field_order=2)
    assert intersection_multiplicity(axis2, branch(2, [(3, 1)], truncation=12, field_order=2)) == 3
    assert intersection_multiplicity(axis2, branch(2, [(5, 1)], truncation=12, field_order=2)) == 5
    line_p = branch(1, [(1, 1)], truncation=12)
    line_m = branch(1, [(1, -1)], truncation=12)
    assert intersection_multiplicity(line_p, line_m) == 1


ORACLE_PAIRS = [
    # (first branch, implicit equation of the second branch, second branch)
    (
        "y=0 against y^2 = x^3",
        branch(1, [], truncation=32, field_order=2),
        {(0, 2): 1, (3, 0): -1},
        branch(2, [(3, 1)], truncation=12, field_order=2),
    ),
    (
        "y=0 against y^2 = x^5",
        branch(1, [], truncation=32, field_order=2),
        {(0, 2): 1, (5, 0): -1},
        branch(2, [(5, 1)], truncation=12, field_order=2),
    ),
    (
        "y=x against y=-x",
        branch(1, [(1, 1)], truncation=12),
        {(0, 1): 1, (1, 0): 1},
        branch(1, [(1, -1)], truncation=12),
    ),
    (
        "y=0 against y = x^2",
        branch(1, [], truncation=32),
        {(0, 1): 1, (2, 0): -1},
        branch(1, [(2, 1)], truncation=12),
    ),
    (
        "cusp against perturbed cusp y^2 = x^3 + x^4",
        branch(2, [(3, 1)], truncation=12, field_order=2),
        {(0, 2): 1, (3, 0): -1, (4, 0): -1},
        branch(
            2,
            [(3 + 2 * k, sqrt_series(k)) for k in range(5)],
            truncation=12,
            field_order=2,
        ),
    ),
    (
        "cusp against its tangent translate (y - x^2)^2 = x^3",
        branch(2, [(3, 1)], truncation=12, field_order=2),
        {(0, 2): 1, (2, 1): -2, (4, 0): 1, (3, 0): -1},
        branch(2, [(3, -1), (4, 1)], truncation=12, field_order=2),
    ),
]


@pytest.mark.parametrize("label,b1,implicit,b2", ORACLE_PAIRS, ids=[p[0] for p in ORACLE_PAIRS])
def test_conjugate_sum_formula_matches_substitution(label, b1, implicit, b2):
    # sanity: the implicit equation really vanishes along its own branch,
    # i.e. substituting b2 kills everything the truncation can see
    order = math.lcm(*(c.order for _, c in b2.terms))
    y2 = {m: c.lift(order) for m, c in b2.terms}
    residual = {}
    for (i, j), c in implicit.items():
        term = {i * b2.n: CyclotomicNumber.from_rational(order, c)}
        for _ in range(j):
            term = _series_mul(term, y2)
        for e, coeff in term.items():
            prior = residual.get(e)
            residual[e] = coeff if prior is None else prior + coeff
    alive = [e for e, coeff in residual.items() if not coeff.is_zero()]
    assert not alive or min(alive) > b2.truncation

    assert intersection_multiplicity(b1, b2) == substitution_order(implicit, b1)


def test_oracle_pair_values_are_frozen():
    values = [intersection_multiplicity(b1, b2) for _, b1, _, b2 in ORACLE_PAIRS]
    assert values == [3, 5, 1, 2, 8, 7]


def _random_branch(rng):
    n = rng.choice([1, 2, 3, 4])
    exps = sorted(rng.sample(range(n, 13), rng.randint(1, 3)))
    coeffs = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in exps]
    return branch(n, list(zip(exps, coeffs)), truncation=24, field_order=12)


def test_invariants_are_symmetric_and_conjugation_invariant():
    rng = random.Random(1009)
    usable = 0
    while usable < 10:
        b1, b2 = _random_branch(rng), _random_branch(rng)
        try:
            c12 = contact(b1, b2)
            m12 = intersection_multiplicity(b1, b2)
        except TruncationExceeded:
            continue
        assert c12 >= 1
        assert c12 == contact(b2, b1)
        assert m12 == intersection_multiplicity(b2, b1)
        for k in range(b1.n):
            assert contact(conjugate(b1, k), b2) == c12
            assert intersection_multiplicity(conjugate(b1, k), b2) == m12
        for k in range(b2.n):
            assert contact(b1, conjugate(b2, k)) == c12
            assert intersection_multiplicity(b1, conjugate(b2, k)) == m12
        usable += 1


def test_contact_report_two_smooth_branches():
    g = germ([branch(1, [], truncation=16), branch(1, [(2, 1)], truncation=16)])
    report = contact_report(g)
    assert report.contact[0][1] == 2
    assert report.intersection[0][1] == 2
    assert report.contact[0][0] is None and report.intersection[1][1] is None


def test_contact_report_single_branch_is_empty():
    report = contact_report(germ([branch(2, [(5, 1)], truncation=8)]))
    assert report.branch_count == 1
    assert report.contact == ((None,),)
    assert report.intersection == ((None,),)


def test_contact_report_axis_and_cusp():
    g = germ([branch(1, [], truncation=16), branch(2, [(3, 1)], truncation=8)])
    report = contact_report(g)
    assert report.contact[0][1] == Fraction(3, 2)
    assert report.intersection[0][1] == 3


def _random_coefficient(rng):
    """q * zeta_k^j with k in {1, 3, 4, 5}, in Q(zeta_60), which holds every
    conjugating root for multiplicities up to 6."""
    order = rng.choice((1, 3, 4, 5))
    c = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)) * zeta(order, rng.randrange(order))
    return c.lift(60)


def _random_germ_branches(rng):
    """2-6 branches of multiplicity 1-6 with cyclotomic coefficients; about
    half continue an earlier branch (exponents rescaled, conjugated, then
    changed in one term), so contacts go beyond the leading term."""
    branches = []
    for _ in range(rng.randint(2, 6)):
        n = rng.randint(1, 6)
        parents = [b for b in branches if n % b.n == 0]
        if parents and rng.random() < 0.5:
            parent = conjugate(rng.choice(parents), rng.randrange(6))
            scale = n // parent.n
            terms = {m * scale: c for m, c in parent.terms}
            m = rng.randint(n, (parent.truncation + 1) * scale)
            terms[m] = terms.get(m, 0) + _random_coefficient(rng)
            terms = {e: c for e, c in terms.items() if not c.is_zero()}
            truncation = max([m, *terms]) + rng.randint(0, 2)
        else:
            exps = rng.sample(range(n, 3 * n + 6), rng.randint(1, 3))
            terms = {m: _random_coefficient(rng) for m in exps}
            truncation = max(exps) + rng.randint(0, 3)
        branches.append(branch(n, sorted(terms.items()), truncation=truncation))
    return branches


def test_report_reads_the_validation_sweep():
    # Differential: the report, read from the sweeps kept at construction,
    # equals contact and intersection number computed afresh per pair; the
    # kept sweeps change neither equality, hashing, repr nor the file form.
    rng = random.Random(2718)
    germs = deep = 0
    while germs < 25:
        branches = _random_germ_branches(rng)
        try:
            g = germ(branches)
        except GermValidationError:
            continue
        report = contact_report(g)
        r = len(g.branches)
        for i in range(r):
            for j in range(i + 1, r):
                bi, bj = g.branches[i], g.branches[j]
                assert report.contact[i][j] == report.contact[j][i] == contact(bi, bj)
                assert report.intersection[i][j] == intersection_multiplicity(bi, bj)
                deep += report.contact[i][j] > min(bi.terms[0][0] / bi.n if bi.terms else 99,
                                                   bj.terms[0][0] / bj.n if bj.terms else 99)
        twin = germ(branches)
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert repr(g) == f"CurveGerm(branches={g.branches!r})"
        doc = germ_to_dict(g)
        assert set(doc) == {"zeta_order", "branches"}
        again = germ_from_dict(doc)
        assert again == g and germ_to_dict(again) == doc
        germs += 1
    assert deep >= 10, deep


def test_under_truncated_pairs_fail_before_a_report_is_attempted():
    # Germ validation runs the conjugate sweeps that the report reads, so
    # an inconclusive pair is rejected at construction with the pair named.
    with pytest.raises(GermValidationError, match="branches 1 and 2"):
        germ(
            [
                branch(1, [], truncation=16),
                branch(1, [(2, 1)], truncation=2),
                branch(1, [(2, 1), (3, 1)], truncation=16),
            ]
        )


def test_contact_matrices_must_be_consistent():
    with pytest.raises(ValueError, match="symmetric"):
        ContactReport(
            2,
            ((None, Fraction(2)), (Fraction(3), None)),
            ((None, 2), (2, None)),
        )
    with pytest.raises(ValueError) as info:
        ContactReport(
            2,
            ((None, Fraction(1, 2)), (Fraction(1, 2), None)),
            ((None, 1), (1, None)),
        )
    assert str(info.value).startswith("contact[0][1] = 1/2 < 1;")


@pytest.mark.parametrize("numerator, value", [(4, "7/2"), (0, "0")])
def test_a_tampered_contact_fails_the_intersection_check(numerator, value):
    # the cusp y = t^3 (n = 2, beta_1 = 3) against the axis: Noether's formula
    # gives (1/2) * (3 + 1 * 2 * c), so the true contact 3/2 gives 3, and a
    # contact of 2 or 0 gives 7/2 or 0
    g = germ([branch(2, [(3, 1)], truncation=8), branch(1, [], truncation=16)])
    # the root at level 3/2 over the two leaves
    assert g._tree == (2, ((3, None, None), (-1, 0, 0), (1, 2)))
    assert contact_report(g).intersection[0][1] == 3
    object.__setattr__(g, "_tree", (2, ((numerator, None, None), (-1, 0, 0), (1, 2))))
    with pytest.raises(
        ConsistencyError,
        match=f"intersection multiplicity came out as {value}, not a positive integer",
    ):
        contact_report(g)


@pytest.mark.parametrize("second, levels, leaves, message", [
    # y = 2t^3 (n = 2) meets the cusp at 3/2; at a tampered 1/2 Noether's
    # formula gives (2/2) * (2 * 2 * 1/2) = 2, a valid intersection number,
    # so only the contact bound can catch it
    (branch(2, [(3, 2)], truncation=8), (1, None, None), (1, 2),
     "contact[0][1] = 1/2 < 1; branches do not share the parametrization form"),
    # both leaves on one node: the tree meets no pair, which once left a
    # None contact for the report's constructor to compare with 1
    (branch(1, [], truncation=16), (3, None, None), (1, 1),
     "the contact tree meets 0 branch pairs, not all 1"),
], ids=["contact-below-one", "pair-never-met"])
def test_a_tampered_tree_is_caught_where_the_report_is_made(second, levels, leaves, message):
    g = germ([branch(2, [(3, 1)], truncation=8), second])
    assert g._tree == (2, ((3, None, None), (-1, 0, 0), (1, 2)))
    object.__setattr__(g, "_tree", (2, (levels, (-1, 0, 0), leaves)))
    with pytest.raises(ConsistencyError) as info:
        contact_report(g)
    assert str(info.value) == message


def test_noether_runs_once_per_meeting_on_the_smooth_chain(monkeypatch):
    # the chain of r = 50 smooth branches, branch k being y = x^2 + ... +
    # x^(k+1): every branch has one kind, so each of the tree's r - 1
    # meetings needs one intersection number, where one per pair made 1,225
    r = 50
    g = germ([branch(1, [(m, 1) for m in range(2, k + 2)], truncation=k + 3)
              for k in range(1, r + 1)])
    meetings = sum(1 for _ in _meetings(g._tree[1]))
    noether, calls = contact_module._noether, []
    monkeypatch.setattr(contact_module, "_noether",
                        lambda *args: calls.append(args) or noether(*args))
    report = contact_report(g)
    monkeypatch.undo()
    assert len(calls) <= meetings == r - 1
    for i, j in itertools.combinations(range(r), 2):
        bi, bj = g.branches[i], g.branches[j]
        assert report.contact[i][j] == report.contact[j][i] == contact(bi, bj)
        assert report.intersection[i][j] == report.intersection[j][i] == (
            intersection_multiplicity(bi, bj))


def test_a_report_makes_no_fraction_through_the_constructor(monkeypatch):
    # contacts 2 and 3/2 over den 2: each is reduced as ints and built
    # from them, so the constructor never runs
    g = germ([branch(1, [], truncation=16), branch(1, [(2, 1)], truncation=16),
              branch(2, [(3, 1)], truncation=16)])
    new, calls = Fraction.__new__, []
    monkeypatch.setattr(Fraction, "__new__", lambda *args, **kw: calls.append(1) or new(*args, **kw))
    report = contact_report(g)
    monkeypatch.undo()
    assert calls == []
    assert report.contact[0][1] == 2 and report.contact[0][2] == report.contact[1][2] == Fraction(3, 2)
    assert report.contact[0][2] is report.contact[1][2]


def test_every_contact_a_report_hands_out_is_reduced(generated_germs):
    demos = [load_germ(path) for path in sorted(DEMO_DATA.glob("*.json"))]
    for g in [g for _, g, _ in generated_germs] + demos:
        report = contact_report(g)
        for i, j in itertools.combinations(range(report.branch_count), 2):
            value = report.contact[i][j]
            p, q = value.numerator, value.denominator
            assert type(value) is Fraction and q > 0 and math.gcd(p, q) == 1, value
            assert (str(value), hash(value)) == (str(Fraction(p, q)), hash(Fraction(p, q)))


def test_the_constructors_accept_everything_the_library_builds(generated_germs):
    # the report and the characteristic data are built without their
    # constructors; the constructors' checks must pass on every one of them
    demos = [load_germ(path) for path in sorted(DEMO_DATA.glob("*.json"))]
    branches = 0
    for g in [g for _, g, _ in generated_germs] + demos:
        report = contact_report(g)
        assert ContactReport(report.branch_count, report.contact, report.intersection) == report
        for b in g.branches:
            d = characteristic_data(b)
            assert CharacteristicData(d.beta, d.e, d.pairs, d.genus) == d
            branches += 1
    assert branches >= 200 and len(demos) == 8, branches


def test_report_serialization_round_trips_rationals():
    g = germ([branch(1, [], truncation=16), branch(2, [(3, 1)], truncation=8)])
    payload = contact_report(g).to_dict()
    assert payload["contact"][0][1] == "3/2"
    assert Fraction(payload["contact"][0][1]) == Fraction(3, 2)


def conjugate_sum(b1, b2):
    """Oracle: n1 times the sum of the orders at which b1 and each
    conjugate of b2 first differ."""
    total = b1.n * sum(difference_order(b1, b2, k) for k in range(b2.n))
    assert total.denominator == 1 and total > 0, (b1, b2, total)
    return int(total)


def test_intersection_numbers_equal_the_conjugate_sum(generated_germs):
    demos = [load_germ(path) for path in sorted(DEMO_DATA.glob("*.json"))]
    pairs = 0
    for g in [g for _, g, _ in generated_germs] + demos:
        report = contact_report(g)
        for i, j in itertools.permutations(range(len(g.branches)), 2):
            bi, bj = g.branches[i], g.branches[j]
            expected = conjugate_sum(bi, bj)
            assert report.intersection[i][j] == intersection_multiplicity(bi, bj) == expected
            # Noether's formula read from either branch's exponents
            p, den = report.contact[i][j].numerator, report.contact[i][j].denominator
            from_i = _noether(bi.n, _steps(bi), bj.n, p, den)
            assert from_i == _noether(bj.n, _steps(bj), bi.n, p, den)
            pairs += 1
    assert pairs >= 300 and len(demos) == 8, pairs


def test_intersection_reads_the_exponents_only_up_to_the_contact():
    # a is y = x + x^2 with n = 2: every known exponent is even, so its
    # characteristic data is beyond the truncation, but nothing past the
    # contact 1 with y = 2x is needed for their intersection number
    a = branch(2, [(2, 1), (4, 1)], truncation=4)
    b = branch(1, [(1, 2)], truncation=3)
    with pytest.raises(TruncationExceeded):
        characteristic_data(a)
    for pair in ([a, b], [b, a]):
        report = contact_report(germ(pair))
        assert report.contact[0][1] == 1 and report.intersection[0][1] == 2
        assert intersection_multiplicity(*pair) == 2
