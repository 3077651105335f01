"""Acceptance suite.

Each test prints one PASS/FAIL line and enforces the stated tolerance
and runtime budget.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they go by.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

from curvegerm import (
    BASELINE,
    CyclotomicNumber,
    STATUS_DISTINCT,
    STATUS_EQUIVALENT,
    branch,
    characteristic_data,
    check_contact_distortion,
    classify,
    contact,
    default_branch_grid,
    estimate_branch_contact,
    estimate_contact,
    geometric_grid,
    germ,
    intersection_multiplicity,
    lipschitz_normal_form,
    sample_branch_arc,
    witness_arcs,
)


@contextmanager
def criterion(number, description, budget_seconds):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    if elapsed > budget_seconds:
        print(f"FAIL  criterion {number}: {description} (took {elapsed:.2f}s)")
        raise AssertionError(f"criterion {number} exceeded {budget_seconds}s: {elapsed:.2f}s")
    print(f"PASS  criterion {number}: {description} ({elapsed:.3f}s)")


def axis(field_order=1):
    return branch(1, [], truncation=32, field_order=field_order)


def test_criterion_1_reference_pair_threshold():
    with criterion(1, "classify y^2=x^5 vs y^2=x^3 certifies k0 = 4/5", 1.0):
        verdict = classify(
            germ([branch(2, [(5, 1)], truncation=8)]),
            germ([branch(2, [(3, 1)], truncation=8)]),
        )
        assert verdict.status == STATUS_DISTINCT
        assert verdict.k0 == Fraction(4, 5)
        assert abs(verdict.alpha0 - 0.945742) < 1e-5
        assert verdict.alpha0_exact == "(4/5)^(1/4)"


def test_criterion_2_characteristic_extraction():
    with criterion(2, "characteristic data of (t^4, t^6 + t^7)", 0.1):
        b = branch(4, [(6, 1), (7, 1)], truncation=12)
        data = characteristic_data(b)
        assert data.beta == (4, 6, 7)
        assert data.e == (4, 2, 1)
        assert data.pairs == ((3, 2), (7, 2))
        assert characteristic_data(lipschitz_normal_form(b)) == data


def test_criterion_3_intersection_oracle_equivalence():
    with criterion(3, "conjugate-sum formula equals exact substitution", 5.0):

        def substitution_order(monomials, b):
            def mul(p, q):
                out = {}
                for e1, c1 in p.items():
                    for e2, c2 in q.items():
                        prior = out.get(e1 + e2)
                        out[e1 + e2] = c1 * c2 if prior is None else prior + c1 * c2
                return out

            order = math.lcm(*(c.order for _, c in b.terms))
            y = {m: c.lift(order) for m, c in b.terms}
            total = {}
            for (i, j), c in sorted(monomials.items()):
                term = {i * b.n: CyclotomicNumber.from_rational(order, c)}
                for _ in range(j):
                    term = mul(term, y)
                for e, coeff in term.items():
                    prior = total.get(e)
                    total[e] = coeff if prior is None else prior + coeff
            return min(e for e, coeff in total.items() if not coeff.is_zero())

        def sqrt_coeff(k):
            c = Fraction(1)
            for i in range(k):
                c *= Fraction(1, 2) - i
                c /= i + 1
            return c

        perturbed = branch(
            2, [(3 + 2 * k, sqrt_coeff(k)) for k in range(5)], truncation=12, field_order=2
        )
        pairs = [
            (axis(2), {(0, 2): 1, (3, 0): -1}, branch(2, [(3, 1)], truncation=8, field_order=2)),
            (axis(2), {(0, 2): 1, (5, 0): -1}, branch(2, [(5, 1)], truncation=8, field_order=2)),
            (
                branch(1, [(1, 1)], truncation=8),
                {(0, 1): 1, (1, 0): 1},
                branch(1, [(1, -1)], truncation=8),
            ),
            (axis(), {(0, 1): 1, (2, 0): -1}, branch(1, [(2, 1)], truncation=8)),
            (
                branch(2, [(3, 1)], truncation=12, field_order=2),
                {(0, 2): 1, (3, 0): -1, (4, 0): -1},
                perturbed,
            ),
            (
                branch(2, [(3, 1)], truncation=12, field_order=2),
                {(0, 2): 1, (2, 1): -2, (4, 0): 1, (3, 0): -1},
                branch(2, [(3, -1), (4, 1)], truncation=12, field_order=2),
            ),
        ]
        assert len(pairs) >= 5
        for b1, implicit, b2 in pairs:
            assert intersection_multiplicity(b1, b2) == substitution_order(implicit, b1)


def test_criterion_4_numeric_symbolic_contact_agreement():
    with criterion(4, "estimated contact within 0.1 of the exact value", 10.0):
        pairs = [
            (branch(1, [(1, 1)], truncation=8), branch(1, [(1, -1)], truncation=8)),
            (axis(2), branch(2, [(3, 1)], truncation=8)),
            (axis(), branch(1, [(2, 1)], truncation=8)),
            (axis(2), branch(2, [(5, 1)], truncation=8)),
            (axis(), branch(1, [(3, 1)], truncation=8)),
        ]
        grid = geometric_grid(1e-1, 1e-4, 16)
        expected = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
        for (b1, b2), value in zip(pairs, expected):
            assert contact(b1, b2) == value
            estimate = estimate_branch_contact(b1, b2, grid)
            assert abs(estimate.slope - float(value)) <= 0.1
            assert estimate.r_squared >= 0.99


def test_criterion_5_distortion_bounds():
    with criterion(5, "radial map distortion bounds for beta in {1, 1.25, 2}", 10.0):
        grid = geometric_grid(1e-1, 1e-3, 16)
        a = sample_branch_arc(axis(), 0, 0.0, grid)
        b = sample_branch_arc(branch(1, [(2, 1)], truncation=8), 0, 0.0, grid)
        for beta in (1.0, 1.25, 2.0):
            report = check_contact_distortion(a, b, beta, grid, tolerance=0.1)
            assert report.passed
            assert abs(report.image.slope - (beta + 1) / beta) <= 0.1


def test_criterion_6_contact_obstruction_pair():
    with criterion(6, "classify {y=0, y=x^2} vs {y=0, y=x^3} certifies k0 = 2/3", 1.0):
        g1 = germ([axis(), branch(1, [(2, 1)], truncation=16)])
        g2 = germ([axis(), branch(1, [(3, 1)], truncation=16)])
        verdict = classify(g1, g2)
        assert verdict.status == STATUS_DISTINCT
        assert verdict.k0 == Fraction(2, 3)


def test_criterion_7_classifier_sanity(classify_corpus):
    with criterion(7, "self-equivalence, symmetry, and threshold bounds", 10.0):
        assert len(classify_corpus) >= 10
        for g in classify_corpus:
            verdict = classify(g, g)
            assert verdict.status == STATUS_EQUIVALENT
        # the corpus ends with a permuted copy of its two-branch germ
        permuted = classify(classify_corpus[4], classify_corpus[11])
        assert permuted.status == STATUS_EQUIVALENT
        for g1, g2 in itertools.combinations(classify_corpus, 2):
            forward, backward = classify(g1, g2), classify(g2, g1)
            assert forward.status == backward.status
            assert forward.k0 == backward.k0
            if forward.status == STATUS_DISTINCT:
                assert BASELINE <= forward.k0 < 1


def test_criterion_8_witness_arc_asymptotics():
    with criterion(8, "witness arc slopes 5/2 and 1 for (t^2, t^5)", 5.0):
        b = branch(2, [(5, 1)], truncation=8)
        radii = default_branch_grid(b)
        base, quarter, twisted, _ = witness_arcs(b, 1, radii)
        twist = estimate_contact(base, twisted, radii)
        turn = estimate_contact(base, quarter, radii)
        assert abs(twist.slope - 2.5) <= 0.1
        assert abs(turn.slope - 1.0) <= 0.05
