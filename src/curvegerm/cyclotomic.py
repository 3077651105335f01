"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element of Q(zeta_N) is stored as phi(N) integer numerators over one
positive common denominator: its coordinates in the power basis
1, z, ..., z^(phi(N)-1), z = exp(2*pi*i/N), reduced modulo the N-th
cyclotomic polynomial, are nums[i] / den.  The form is canonical,
gcd(den, *nums) == 1 (so zero has den == 1), which makes equality and
zero tests plain integer comparisons; exact zero testing is the
primitive that every order-of-vanishing computation in the rest of the
library leans on.  Rationals become ints once, where a value enters
(the constructor, :meth:`CyclotomicNumber.from_rational` and the parse
path); arithmetic runs on ints, and the read-only ``coeffs`` gives the
coordinates back as Fractions.  Multiplicative inverses are never
needed downstream and are not provided.

All reduction reads one cached int table per order, the power basis
(Phi_N is monic with integer coefficients).  Multiplying by zeta^j is a
rotation, :meth:`CyclotomicNumber.rotate`: numerator nums[i] moves to row
(i + j) mod N of the table, a unit vector when that index is below phi(N).

Integer polynomials appear only as plumbing and are represented as
tuples of coefficients, constant term first, so (-1, 0, 1) is x^2 - 1.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

_ZERO = Fraction(0)


def _exact_quotient(num, den):
    """Divide integer coefficient tuples exactly; ``den`` must be monic."""
    num, deg = list(num), len(den) - 1
    quot = [0] * (len(num) - deg)
    for shift in range(len(quot) - 1, -1, -1):
        quot[shift] = c = num[shift + deg]
        for i, d in enumerate(den):
            num[shift + i] -= c * d
    assert not any(num), "cyclotomic division must be exact"
    return tuple(quot)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Return the cyclotomic polynomial of the given order.

    With p the least prime factor of N = p*m, Phi_N(x) is Phi_m(x^p)
    when p divides m and Phi_m(x^p) / Phi_m(x) otherwise.  Coefficients
    are returned constant term first.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if order == 1:
        return (-1, 1)
    p = next(q for q in range(2, order + 1) if order % q == 0)
    inner = cyclotomic_polynomial(order // p)
    poly = [0] * ((len(inner) - 1) * p + 1)
    poly[::p] = inner
    return tuple(poly) if (order // p) % p == 0 else _exact_quotient(poly, inner)


@functools.lru_cache(maxsize=None)
def field_degree(order: int) -> int:
    """Degree phi(N) of Q(zeta_N) over Q."""
    return len(cyclotomic_polynomial(order)) - 1


@functools.lru_cache(maxsize=None)
def _power_basis(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Reduced coordinates of zeta^k for 0 <= k < N, as sparse int rows.

    Row k lists the (index, int) pairs of the nonzero coordinates of
    zeta^k; rows below phi(N) are unit vectors.  The one table behind
    products, lifts, rotations and :func:`zeta`.
    """
    phi_poly = cyclotomic_polynomial(order)
    deg = len(phi_poly) - 1
    top = [(i, -c) for i, c in enumerate(phi_poly[:-1]) if c]
    rows = [((i, 1),) for i in range(deg)]
    for _ in range(deg, order):
        shifted = {i + 1: c for i, c in rows[-1]}
        carry = shifted.pop(deg, 0)
        for i, t in top:
            shifted[i] = shifted.get(i, 0) + carry * t
        rows.append(tuple((i, c) for i, c in shifted.items() if c))
    return tuple(rows)


def _canonical(order: int, den: int, nums) -> CyclotomicNumber:
    """The element with coordinates nums[i] / den, the common factor divided out."""
    g = math.gcd(den, *nums)
    number = object.__new__(CyclotomicNumber)
    number.order = order
    number.den = den // g
    number.nums = tuple(nums) if g == 1 else tuple([x // g for x in nums])
    return number


def _over(order: int, den: int, terms) -> CyclotomicNumber:
    """Sum of c * zeta^k / den over the (k, c) pairs of ints."""
    basis = _power_basis(order)
    deg = field_degree(order)
    out = [0] * deg
    for k, c in terms:
        if c:
            k %= order
            if k < deg:
                out[k] += c
            else:
                for i, v in basis[k]:
                    out[i] += c * v
    return _canonical(order, den, out)


def _reduced(order: int, terms) -> CyclotomicNumber:
    """Sum of c * zeta^k over the (k, c) pairs of rationals, in ints over
    the c's common denominator."""
    terms = [(k, c) for k, c in terms if c]
    den = math.lcm(*(c.denominator for _, c in terms))
    return _over(order, den, [(k, c.numerator * (den // c.denominator)) for k, c in terms])


class CyclotomicNumber:
    """An element of Q(zeta_N) in the reduced power basis.

    ``nums`` holds phi(N) integer numerators over the positive common
    denominator ``den``, in canonical form: gcd(den, *nums) == 1, so
    zero has den == 1 and equal values have equal fields.  ``coeffs``
    gives the coordinates nums[i] / den as Fractions.

    Values are immutable and arithmetic is exact.  Operands must share
    the same order N; use :meth:`lift` to move an element into a larger
    field Q(zeta_M) with N | M before mixing orders.

    >>> zeta(4) * zeta(4) == -1
    True
    >>> (zeta(12) ** 6).is_zero()
    False
    >>> x = CyclotomicNumber(6, ["1/2", "-3/4"])
    >>> x.den, x.nums
    (4, (2, -3))
    >>> x.coeffs == (Fraction(1, 2), Fraction(-3, 4))
    True
    """

    __slots__ = ("order", "den", "nums")

    def __init__(self, order: int, coeffs):
        deg = field_degree(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != deg:
            raise ValueError(
                f"Q(zeta_{order}) has degree {deg}, got {len(coeffs)} coordinates"
            )
        den = math.lcm(*(c.denominator for c in coeffs))
        self.order = order
        self.den = den
        self.nums = tuple([c.numerator * (den // c.denominator) for c in coeffs])

    @classmethod
    def from_rational(cls, order: int, value) -> CyclotomicNumber:
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        nums = (value.numerator,) + (0,) * (field_degree(order) - 1)
        return _canonical(order, value.denominator, nums)

    @classmethod
    def zero(cls, order: int) -> CyclotomicNumber:
        return cls.from_rational(order, 0)

    @classmethod
    def one(cls, order: int) -> CyclotomicNumber:
        return cls.from_rational(order, 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates nums[i] / den as Fractions."""
        den = self.den
        return tuple([Fraction(x, den) if x else _ZERO for x in self.nums])

    def is_zero(self) -> bool:
        """Exact zero test; valid because coordinates are reduced."""
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def _coerced(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(self.order, other)
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError(
                    f"incompatible field orders {self.order} and {other.order}; "
                    "lift to a common multiple first"
                )
            return other
        return None

    def _combined(self, other, sign: int) -> CyclotomicNumber:
        """self + sign * other over the lcm of the two denominators."""
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return _canonical(
            self.order, den, [x * fa + y * fb for x, y in zip(self.nums, other.nums)]
        )

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self._combined(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self._combined(other, -1)

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _canonical(self.order, self.den, [-x for x in self.nums])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _canonical(
                self.order, self.den * other.denominator,
                [x * other.numerator for x in self.nums],
            )
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        xs = [(i, x) for i, x in enumerate(self.nums) if x]
        ys = [(j, y) for j, y in enumerate(other.nums) if y]
        product = [0] * (2 * len(self.nums) - 1)
        for i, x in xs:
            for j, y in ys:
                product[i + j] += x * y
        return _over(self.order, self.den * other.den, enumerate(product))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not supported (no inverses)")
        result, base = CyclotomicNumber.one(self.order), self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, CyclotomicNumber):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CyclotomicNumber.from_rational(self.order, other)
        return (
            self.order == other.order and self.den == other.den and self.nums == other.nums
        )

    def __hash__(self):
        # a rational element equals its int or Fraction, so it hashes as one
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.order, self.den, self.nums))

    def to_complex(self) -> complex:
        """Numerical value; coordinates are summed in ascending power order."""
        w = 2j * cmath.pi / self.order
        den = self.den
        total = 0j
        for j, c in enumerate(self.nums):
            if c:
                total += c / den * cmath.exp(w * j)
        return total

    def lift(self, order: int) -> CyclotomicNumber:
        """Reinterpret the element inside Q(zeta_order); self.order must divide it."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(
                f"cannot lift from order {self.order} to non-multiple {order}"
            )
        step = order // self.order
        return _over(order, self.den, zip(range(0, step * len(self.nums), step), self.nums))

    def rotate(self, power: int) -> CyclotomicNumber:
        """The product zeta^power * self, formed without a general multiplication."""
        return _over(self.order, self.den, zip(range(power, power + len(self.nums)), self.nums))

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                var = "z" if j == 1 else f"z^{j}"
                body = var if mag == 1 else f"{mag}*{var}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CyclotomicNumber({self.order}, '{self}')"


def zeta(order: int, power: int = 1) -> CyclotomicNumber:
    """The root of unity zeta_order**power as an exact field element.

    >>> zeta(6, 3) == -1
    True
    """
    return _over(order, 1, ((power, 1),))
