import cmath
import itertools
import math
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


@pytest.mark.parametrize("order", [1, 2, 4, 6, 12, 210])
def test_rational_elements_hash_as_the_rationals_they_equal(order):
    values = [0, 1, -1, 7, Fraction(1, 2), Fraction(-3, 4), Fraction(10, 3)]
    for value in values:
        x = CyclotomicNumber.from_rational(order, value)
        assert x == value and hash(x) == hash(value)
        assert x in {value} and value in {x}
        assert {value: "found"}[x] == "found" and {x: "found"}[value] == "found"
    # rationals reached through roots of unity and sums; zeta(4)**2 is -1
    minus_one = zeta(order) ** (order // 2) if order % 2 == 0 else -CyclotomicNumber.one(order)
    assert minus_one == -1 and minus_one in {-1} and {-1: 1}[minus_one] == 1
    half = (zeta(order) + 1 - zeta(order)) * Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2)) and {Fraction(1, 2): 1}[half] == 1
    total = sum((zeta(order, k) for k in range(order)), CyclotomicNumber.zero(order))
    assert total == (1 if order == 1 else 0) and hash(total) == hash(1 if order == 1 else 0)
    # an element off the rationals keeps hashing by its coordinates
    if order > 2:
        z = zeta(order)
        assert z not in set(values) and hash(z) == hash((order, 1, z.nums))


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


def fraction_product(a, b):
    """Reference product with one Fraction per pair of coordinates: the
    schoolbook product reduced by long division by the monic Phi_N."""
    deg = field_degree(a.order)
    product = [Fraction(0)] * (2 * deg - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            product[i + j] += x * y
    phi = cyclotomic_polynomial(a.order)
    for top in range(len(product) - 1, deg - 1, -1):
        c = product[top]
        for i, p in enumerate(phi):
            product[top - deg + i] -= c * p
    return tuple(product[:deg])


def test_integer_product_matches_the_fraction_product():
    rng = random.Random(97)
    for order in (12, 210, 420):
        deg = field_degree(order)
        zero = CyclotomicNumber.zero(order)
        sparse = CyclotomicNumber(
            order, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) if i in (0, deg - 1) else 0
                    for i in range(deg)]
        )
        dense = [_random_element(rng, order, 1000, 1000) for _ in range(2)]
        for a, b in [(dense[0], dense[1]), (dense[1], dense[1]), (dense[0], sparse),
                     (sparse, sparse), (dense[1], zero)]:
            product = a * b
            assert product.coeffs == fraction_product(a, b), order
            assert all(type(c) is Fraction for c in product.coeffs)
            assert abs(product.to_complex() - a.to_complex() * b.to_complex()) < 1e-6 * (
                1 + abs(a.to_complex() * b.to_complex())
            )


# --- differential test against a test-only Fraction reference ------------


def ref_reduce(order, poly):
    """Power-basis coordinates of sum poly[k] * z^k as Fractions, by long
    division by the monic Phi_N."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, deg - len(poly))
    for top in range(len(poly) - 1, deg - 1, -1):
        c = poly[top]
        if c:
            for i, p in enumerate(phi):
                if p:
                    poly[top - deg + i] -= c * p
    return tuple(poly[:deg])


def ref_times_z(order, coeffs):
    """z * v: shift up, then replace z^phi by -(Phi_N - z^phi)."""
    phi = cyclotomic_polynomial(order)
    top = coeffs[-1]
    return tuple(c - top * p if p else c for c, p in zip((Fraction(0),) + coeffs[:-1], phi))


def ref_over_z(order, coeffs):
    """v / z: shift down, with z^-1 = -(Phi_N(z) - Phi_N(0)) / (z * Phi_N(0))."""
    phi = cyclotomic_polynomial(order)
    low = coeffs[0]
    shifted = coeffs[1:] + (Fraction(0),)
    return tuple(c - low * p / phi[0] if p else c for c, p in zip(shifted, phi[1:]))


def ref_str(coeffs):
    parts = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if j == 0 else ("z" if j == 1 else f"z^{j}")
        if j and mag != 1:
            body = f"{mag}*{body}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    return " ".join(parts) if parts else "0"


def ref_complex(order, coeffs):
    w = 2j * cmath.pi / order
    total = 0j
    for j, c in enumerate(coeffs):
        if c:
            total += float(c) * cmath.exp(w * j)
    return total


class Ref:
    """One Fraction per coordinate: the representation the kernel replaced."""

    def __init__(self, order, coeffs):
        self.order, self.coeffs = order, tuple(Fraction(c) for c in coeffs)

    def __add__(self, other):
        return Ref(self.order, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return Ref(self.order, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Ref(self.order, (-c for c in self.coeffs))

    def scaled(self, q):
        return Ref(self.order, (c * q for c in self.coeffs))

    def __mul__(self, other):
        # fraction_product without the steps on zero coordinates
        poly = [Fraction(0)] * (2 * len(self.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                if x and y:
                    poly[i + j] += x * y
        return Ref(self.order, ref_reduce(self.order, poly))

    def __pow__(self, exponent):
        result = Ref(self.order, ref_reduce(self.order, [1]))
        for _ in range(exponent):
            result = result * self
        return result

    def lift(self, order):
        step = order // self.order
        poly = [0] * ((len(self.coeffs) - 1) * step + 1)
        poly[::step] = self.coeffs
        return Ref(order, ref_reduce(order, poly))


def assert_canonical(x):
    assert type(x.den) is int and x.den > 0
    assert len(x.nums) == field_degree(x.order)
    assert all(type(c) is int for c in x.nums)
    assert math.gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


def assert_matches(x, ref):
    assert_canonical(x)
    assert x.order == ref.order
    assert x.coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in x.coeffs)
    assert x.is_zero() == all(c == 0 for c in ref.coeffs)
    assert x.is_rational() == all(c == 0 for c in ref.coeffs[1:])
    assert x.to_complex() == ref_complex(ref.order, ref.coeffs)
    assert str(x) == ref_str(ref.coeffs)


def _kernel_inputs(rng, order):
    deg = field_degree(order)
    support = set(rng.sample(range(deg), min(deg, 3)))
    sparse = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12)) if i in support else 0
              for i in range(deg)]
    dense = [Fraction(rng.randint(-1000, 1000), rng.randint(1, 12)) for _ in range(deg)]
    integral = [rng.randint(-5, 5) for _ in range(deg)]
    return [dense, sparse, integral, [0] * deg]


def _low_inputs(order):
    """A rational, and a rational plus a multiple of z: nonzero only in the
    coordinates that is_rational reads first."""
    deg = field_degree(order)
    return [[Fraction(5, 3)] + [0] * (deg - 1)] + (
        [[Fraction(5, 3), Fraction(-1, 2)] + [0] * (deg - 2)] if deg > 1 else [])


@pytest.mark.parametrize("order", [1, 2, 12, 210, 420])
def test_kernel_matches_the_fraction_reference(order):
    rng = random.Random(order * 7919 + 3)
    coords = _kernel_inputs(rng, order)
    xs = [CyclotomicNumber(order, c) for c in coords]
    refs = [Ref(order, c) for c in coords]
    for low in _low_inputs(order):
        assert_matches(CyclotomicNumber(order, low), Ref(order, low))
    for x, ref in zip(xs, refs):
        assert_matches(x, ref)
        assert_matches(-x, -ref)
        for q in (3, -2, 0, Fraction(-5, 6), Fraction(7, 4)):
            assert_matches(x * q, ref.scaled(q))
            assert_matches(q * x, ref.scaled(q))
    # the reference product takes phi^2 Fraction steps: in the large fields
    # every product has a sparse or a zero factor
    cheap = {(0, 1), (1, 1), (2, 1), (0, 3)}
    for (i, a, ra), (j, b, rb) in itertools.product(zip(range(4), xs, refs), repeat=2):
        assert_matches(a + b, ra + rb)
        assert_matches(a - b, ra - rb)
        if order <= 12 or (i, j) in cheap:
            assert_matches(a * b, ra * rb)
    for exponent in (0, 1, 2, 5):
        assert_matches(xs[1] ** exponent, refs[1] ** exponent)
    for target in (order, 2 * order, 420 if 420 % order == 0 else order):
        for x, ref in zip(xs, refs):
            assert_matches(x.lift(target), ref.lift(target))
    # every rotation j in [-N, 2N) of the dense element, the reference
    # walking one factor of z at a time
    up = down = refs[0].coeffs
    for j in range(2 * order):
        rotated = xs[0].rotate(j)
        assert_canonical(rotated)
        assert rotated.coeffs == up, (order, j)
        up = ref_times_z(order, up)
    for j in range(-1, -order - 1, -1):
        down = ref_over_z(order, down)
        rotated = xs[0].rotate(j)
        assert_canonical(rotated)
        assert rotated.coeffs == down, (order, j)


@pytest.mark.parametrize("order", [1, 2, 12, 210, 420])
def test_equal_values_from_different_paths_are_equal_and_hash_equal(order):
    rng = random.Random(order)
    for coords in _kernel_inputs(rng, order):
        x = CyclotomicNumber(order, coords)
        twins = [
            (x + x) * Fraction(1, 2),
            x * 6 * Fraction(1, 6),
            x - CyclotomicNumber.zero(order),
        ]
        j = rng.randint(-order, 2 * order)
        twins.append(x.rotate(j).rotate(-j))
        twins.append(x.lift(2 * order).lift(4 * order).rotate(4 * order))
        for twin in twins[:-1]:
            assert twin == x and hash(twin) == hash(x)
            assert (twin.den, twin.nums) == (x.den, x.nums)
        lifted = twins[-1]
        assert lifted == CyclotomicNumber(4 * order, Ref(order, coords).lift(4 * order).coeffs)
        assert hash(lifted) == hash(x.lift(4 * order))
        if not x.is_zero():
            # same numerators over another denominator, or shifted: other values
            assert x * 2 != x and x + 1 != x and x.lift(2 * order) != x
        zero = x - x
        assert zero == CyclotomicNumber.zero(order)
        assert hash(zero) == hash(CyclotomicNumber.zero(order))
        assert zero.den == 1 and zero.is_zero()
    halves = CyclotomicNumber(12, ["2/4", Fraction(6, 4), 0, "-2/4"])
    assert halves == CyclotomicNumber(12, [1, 3, 0, -1]) * Fraction(1, 2)
    assert hash(halves) == hash(CyclotomicNumber(12, [1, 3, 0, -1]) * Fraction(1, 2))
    half = CyclotomicNumber(12, ["2/4", 0, 0, 0])
    assert half == Fraction(1, 2) and hash(half) == hash(CyclotomicNumber.from_rational(12, "1/2"))
    assert zeta(6).lift(12) == zeta(12, 2) and hash(zeta(6).lift(12)) == hash(zeta(12, 2))
