"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element of Q(zeta_N) is stored as a coordinate vector over Q in the
power basis 1, z, ..., z^(phi(N)-1), z = exp(2*pi*i/N), reduced modulo
the N-th cyclotomic polynomial.  Because the basis is reduced, equality
and zero tests are plain coefficient comparisons; exact zero testing is
the primitive that every order-of-vanishing computation in the rest of
the library leans on.  Multiplicative inverses are never needed
downstream and are not provided.

All reduction reads one cached int table per order, the power basis
(Phi_N is monic with integer coefficients).  Multiplying by zeta^j is a
rotation, :meth:`CyclotomicNumber.rotate`: coordinate c_i moves to row
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


def _numerators(terms) -> tuple[int, list[tuple[int, int]]]:
    """The nonzero (k, c) pairs of rationals as (k, int) pairs over their common denominator."""
    terms = [(k, c) for k, c in terms if c]
    den = math.lcm(*(c.denominator for _, c in terms))
    return den, [(k, c.numerator * (den // c.denominator)) for k, c in terms]


def _over(order: int, den: int, terms) -> CyclotomicNumber:
    """Sum of c * zeta^k / den over the (k, c) pairs of ints."""
    basis = _power_basis(order)
    deg = field_degree(order)
    out = [0] * deg
    for k, c in terms:
        k %= order
        if k < deg:
            out[k] += c
        else:
            for i, v in basis[k]:
                out[i] += c * v
    number = object.__new__(CyclotomicNumber)  # coordinates already reduced
    number.order = order
    number.coeffs = tuple(Fraction(x, den) if x else _ZERO for x in out)
    return number


def _reduced(order: int, terms) -> CyclotomicNumber:
    """Sum of c * zeta^k over the (k, c) pairs, in ints over the c's common denominator."""
    return _over(order, *_numerators(terms))


class CyclotomicNumber:
    """An element of Q(zeta_N) in the reduced power basis.

    Values are immutable and arithmetic is exact.  Operands must share
    the same order N; use :meth:`lift` to move an element into a larger
    field Q(zeta_M) with N | M before mixing orders.

    >>> zeta(4) * zeta(4) == -1
    True
    >>> (zeta(12) ** 6).is_zero()
    False
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        deg = field_degree(order)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != deg:
            raise ValueError(
                f"Q(zeta_{order}) has degree {deg}, got {len(coeffs)} coordinates"
            )
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_rational(cls, order: int, value) -> CyclotomicNumber:
        return cls(order, (value,) + (0,) * (field_degree(order) - 1))

    @classmethod
    def zero(cls, order: int) -> CyclotomicNumber:
        return cls.from_rational(order, 0)

    @classmethod
    def one(cls, order: int) -> CyclotomicNumber:
        return cls.from_rational(order, 1)

    def is_zero(self) -> bool:
        """Exact zero test; valid because coordinates are reduced."""
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

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

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return CyclotomicNumber(self.order, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return CyclotomicNumber(self.order, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CyclotomicNumber(self.order, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.order, (c * other for c in self.coeffs))
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        da, xs = _numerators(enumerate(self.coeffs))
        db, ys = _numerators(enumerate(other.coeffs))
        product = [0] * (2 * len(self.coeffs) - 1)
        for i, x in xs:
            for j, y in ys:
                product[i + j] += x * y
        return _over(self.order, da * db, [(k, c) for k, c in enumerate(product) if c])

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
        coerced = self._coerced(other) if isinstance(other, (int, Fraction)) else other
        if not isinstance(coerced, CyclotomicNumber):
            return NotImplemented
        return self.order == coerced.order and self.coeffs == coerced.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def to_complex(self) -> complex:
        """Numerical value; coordinates are summed in ascending power order."""
        w = 2j * cmath.pi / self.order
        total = 0j
        for j, c in enumerate(self.coeffs):
            if c:
                total += float(c) * cmath.exp(w * j)
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
        return _reduced(order, ((j * step, c) for j, c in enumerate(self.coeffs)))

    def rotate(self, power: int) -> CyclotomicNumber:
        """The product zeta^power * self, formed without a general multiplication."""
        return _reduced(self.order, ((i + power, c) for i, c in enumerate(self.coeffs)))

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
    return _reduced(order, ((power, 1),))
