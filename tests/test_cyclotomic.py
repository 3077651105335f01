import random
from fractions import Fraction

import pytest

from curvegerm import CyclotomicNumber, cyclotomic_polynomial, zeta
from curvegerm.cyclotomic import field_degree


# --- independent integer polynomial helpers used only as oracles ----------


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def poly_div_exact(num, den):
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        assert c % den[-1] == 0
        quot[shift] = c // den[-1]
        for i, d in enumerate(den):
            num[shift + i] -= quot[shift] * d
    assert all(c == 0 for c in num)
    return tuple(quot)


def test_cyclotomic_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_order_12_against_division_oracle():
    # x^12 - 1 divided by the product of the proper-divisor polynomials,
    # all of which are standard small cases.
    known = {
        1: (-1, 1),
        2: (1, 1),
        3: (1, 1, 1),
        4: (1, 0, 1),
        6: (1, -1, 1),
    }
    product = (1,)
    for d, poly in known.items():
        assert cyclotomic_polynomial(d) == poly
        product = poly_mul(product, poly)
    x12_minus_1 = (-1,) + (0,) * 11 + (1,)
    expected = poly_div_exact(x12_minus_1, product)
    assert expected == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(12) == expected


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_zeta4_squares_to_minus_one():
    assert zeta(4) * zeta(4) == -1


def test_additive_identity():
    a = zeta(12, 5) + Fraction(3, 7)
    assert a + CyclotomicNumber.zero(12) == a


def test_zeta12_sixth_power():
    sixth = zeta(12) ** 6
    assert sixth == -1
    assert abs(sixth.to_complex() + 1) < 1e-12


def test_is_zero():
    assert CyclotomicNumber.zero(7).is_zero()
    assert (zeta(4) * zeta(4) + 1).is_zero()
    diff = zeta(12) - zeta(12, 5)
    assert not diff.is_zero()
    # exp(i*pi/6) - exp(i*5*pi/6) = sqrt(3), comfortably away from zero
    assert abs(abs(diff.to_complex()) - 3**0.5) < 1e-12


def test_embedded_roots():
    assert zeta(4, 0) == 1
    assert zeta(4, 2) == -1
    minus_one = zeta(6, 3)
    assert minus_one == -1
    assert abs(minus_one.to_complex() + 1) < 1e-12


def test_power_wraps_modulo_order():
    assert zeta(6, 7) == zeta(6, 1)
    assert zeta(6, -1) == zeta(6, 5)


def test_complex_evaluation():
    assert CyclotomicNumber.one(5).to_complex() == 1.0 + 0.0j
    z4 = zeta(4).to_complex()
    assert abs(z4.real) < 1e-15 and abs(z4.imag - 1.0) < 1e-15
    z3 = zeta(3).to_complex()
    assert abs(z3.real + 0.5) < 1e-15
    assert abs(z3.imag - 0.8660254037844386) < 1e-15


def _random_element(rng, order, max_num=10, max_den=10):
    return CyclotomicNumber(
        order,
        [
            Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
            for _ in range(field_degree(order))
        ],
    )


def test_ring_axioms_hold_exactly():
    rng = random.Random(20240517)
    for _ in range(40):
        a = _random_element(rng, 12)
        b = _random_element(rng, 12)
        c = _random_element(rng, 12)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def test_complex_evaluation_is_a_homomorphism():
    rng = random.Random(987)
    for _ in range(40):
        a = _random_element(rng, 12)
        b = _random_element(rng, 12)
        assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-10
        assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-10


def test_zero_test_matches_numeric_evaluation():
    # Sanity cross-check only; the exact coefficient test is the definition.
    rng = random.Random(5150)
    for order in (1, 2, 3, 8, 12, 30, 60):
        for _ in range(10):
            a = _random_element(rng, order, max_num=10**6, max_den=10**6)
            assert a.is_zero() == (abs(a.to_complex()) < 1e-8)
        assert CyclotomicNumber.zero(order).is_zero()
        assert abs(CyclotomicNumber.zero(order).to_complex()) < 1e-8


def test_unity_roots_have_the_right_order():
    for order in range(1, 61):
        assert zeta(order) ** order == 1


def test_order_mismatch_is_rejected():
    with pytest.raises(ValueError, match="incompatible field orders"):
        zeta(4) + zeta(6)
    with pytest.raises(ValueError, match="incompatible field orders"):
        zeta(4) * zeta(6)


def test_lift_into_a_larger_field():
    lifted = zeta(6).lift(12)
    assert lifted == zeta(12, 2)
    assert abs(lifted.to_complex() - zeta(6).to_complex()) < 1e-12
    mixed = zeta(6).lift(12) + zeta(4).lift(12)
    assert abs(mixed.to_complex() - (zeta(6).to_complex() + zeta(4).to_complex())) < 1e-12
    with pytest.raises(ValueError, match="non-multiple"):
        zeta(6).lift(9)


def test_wrong_coordinate_length_is_rejected():
    with pytest.raises(ValueError, match="degree"):
        CyclotomicNumber(12, [1, 2])


def test_negative_powers_are_rejected():
    with pytest.raises(ValueError):
        zeta(5) ** -1


def test_cyclotomic_polynomials_factor_x_to_the_n_minus_one():
    # x^N - 1 is the product of Phi_d over the divisors d of N.
    for order in range(1, 181):
        product = (1,)
        for d in range(1, order + 1):
            if order % d == 0:
                product = poly_mul(product, cyclotomic_polynomial(d))
        assert product == (-1,) + (0,) * (order - 1) + (1,), order


def test_power_basis_is_one_integer_table():
    from curvegerm.cyclotomic import _power_basis

    for order in (1, 2, 12, 30, 420):
        rows = _power_basis(order)
        assert len(rows) == order
        for k, row in enumerate(rows):
            assert all(type(i) is int and type(v) is int and v for i, v in row)
            coords = [0] * field_degree(order)
            for i, v in row:
                coords[i] = v
            assert CyclotomicNumber(order, coords) == zeta(order, k)
            w = zeta(order).to_complex() ** k
            assert abs(CyclotomicNumber(order, coords).to_complex() - w) < 1e-9


def test_rotation_is_multiplication_by_a_root_of_unity():
    rng = random.Random(4242)
    for order in (1, 2, 12, 210, 420):
        deg = field_degree(order)
        support = {0, deg - 1, *rng.sample(range(deg), min(deg, 4))}
        spread = CyclotomicNumber(
            order,
            [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) if i in support else 0
             for i in range(deg)],
        )
        for j in range(-order, 2 * order):
            rotated = spread.rotate(j)
            assert rotated == spread * zeta(order, j), (order, j)
            w = zeta(order, j).to_complex()
            assert abs(rotated.to_complex() - w * spread.to_complex()) < 1e-9
        dense = _random_element(rng, order)
        for j in rng.sample(range(-order, 2 * order), min(3 * order, 12)):
            assert dense.rotate(j) == dense * zeta(order, j), (order, j)
