import math
import random
from fractions import Fraction

import pytest

from curvegerm import (
    CharacteristicData,
    TruncationExceeded,
    branch,
    characteristic_data,
    conjugate,
    lipschitz_normal_form,
    zeta,
)


def test_single_pair_cusp():
    data = characteristic_data(branch(2, [(5, 1)], truncation=12))
    assert data.beta == (2, 5)
    assert data.e == (2, 1)
    assert data.pairs == ((5, 2),)
    assert data.genus == 1


def test_smooth_branch():
    data = characteristic_data(branch(1, [(2, 1), (3, 1)], truncation=8))
    assert data.beta == (1,)
    assert data.e == (1,)
    assert data.pairs == ()
    assert data.genus == 0


def test_genus_two_recursion():
    # e1 = gcd(4, 6) = 2; 7 is the first exponent not divisible by 2;
    # e2 = gcd(2, 7) = 1; pairs (6/2, 4/2) and (7/1, 2/1).
    data = characteristic_data(branch(4, [(6, 1), (7, 1)], truncation=12))
    assert data.beta == (4, 6, 7)
    assert data.e == (4, 2, 1)
    assert data.pairs == ((3, 2), (7, 2))
    assert data.genus == 2


def test_exponents_divisible_by_n_are_not_characteristic():
    # y = x^2 + x^(5/2): the leading term is an analytic graph piece and
    # does not enter the characteristic sequence.
    data = characteristic_data(branch(2, [(4, 1), (5, 1)], truncation=12))
    assert data.beta == (2, 5)
    assert data.pairs == ((5, 2),)


def test_stuck_recursion_reports_the_gcd_and_truncation():
    with pytest.raises(TruncationExceeded, match="stuck at gcd e=2"):
        characteristic_data(branch(4, [(6, 1)], truncation=6))
    with pytest.raises(TruncationExceeded, match="truncation 9"):
        characteristic_data(branch(2, [(4, 1), (8, 1)], truncation=9))


def test_branch_without_terms_and_n_above_one_is_non_primitive():
    with pytest.raises(TruncationExceeded, match="non-primitive"):
        characteristic_data(branch(2, [], truncation=6))


def test_normal_form_keeps_characteristic_terms_only():
    b = branch(2, [(3, 1), (4, 1), (5, 1)], truncation=8)
    normal = lipschitz_normal_form(b)
    assert normal.exponents == (3,)
    assert normal.truncation == 3

    both_characteristic = branch(4, [(6, 1), (7, 1)], truncation=12)
    assert lipschitz_normal_form(both_characteristic).exponents == (6, 7)


def test_normal_form_of_smooth_branch_is_the_axis():
    normal = lipschitz_normal_form(branch(1, [(2, 1)], truncation=8))
    assert normal.terms == ()
    assert normal.n == 1


def test_normal_form_preserves_characteristic_data():
    rng = random.Random(2718)
    seen = 0
    for _ in range(40):
        n = rng.choice([2, 3, 4, 6])
        exps = sorted(rng.sample(range(n, 19), rng.randint(1, 4)))
        b = branch(
            n,
            [(m, Fraction(rng.randint(1, 9), rng.randint(1, 4))) for m in exps],
            truncation=24,
            field_order=12,
        )
        try:
            data = characteristic_data(b)
        except TruncationExceeded:
            continue
        assert characteristic_data(lipschitz_normal_form(b)) == data
        seen += 1
    assert seen >= 15


def test_characteristic_data_is_conjugation_invariant():
    b = branch(4, [(6, zeta(4)), (7, Fraction(2, 3))], truncation=12)
    data = characteristic_data(b)
    for k in range(4):
        assert characteristic_data(conjugate(b, k)) == data


def test_pair_identities_hold_on_every_output():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.choice([2, 3, 4, 6, 8])
        exps = sorted(rng.sample(range(n, 25), rng.randint(1, 4)))
        b = branch(n, [(m, 1) for m in exps], truncation=30)
        try:
            data = characteristic_data(b)
        except TruncationExceeded:
            continue
        assert math.prod(nn for _, nn in data.pairs) == b.n
        for i in range(1, data.genus + 1):
            m, nn = data.pairs[i - 1]
            assert data.beta[i] == m * data.e[i]
            assert data.e[i - 1] == nn * data.e[i]


def test_inconsistent_characteristic_data_is_rejected():
    with pytest.raises(ValueError, match="inconsistent"):
        CharacteristicData((2, 5), (2, 2), ((5, 2),), 1)

